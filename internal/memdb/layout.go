package memdb

import (
	"fmt"
)

// On-region layout.
//
// The region begins with the system catalog, followed by each table's
// record array, exactly as §3.1.2 describes ("various tables with a
// pre-defined size that occupy the memory space one after another").
//
//	offset 0:  catalog header (8 bytes)
//	           magic      u32  = catalogMagic
//	           numTables  u16
//	           reserved   u16
//	then:      table descriptors, 20 bytes each
//	           tableID    u8
//	           flags      u8   (bit 0: dynamic)
//	           numRecords u16
//	           numFields  u16
//	           recordSize u16
//	           offset     u32  (table start, from region base)
//	           fieldOff   u32  (this table's field-descriptor block)
//	           numGroups  u16  (logical-group directory slots)
//	           reserved   u16
//	then:      field descriptors, 16 bytes each, grouped by table
//	           kind       u8
//	           hasRange   u8
//	           reserved   u16
//	           min        u32
//	           max        u32
//	           default    u32
//	then:      table areas: an optional logical-group directory (numGroups
//	           × u16 chain heads, padded to 8 bytes) followed by the
//	           record array, each record:
//	           header (8 bytes): tableID u8, status u8, recordID u16,
//	                             groupID u16, nextIdx u16
//	           fields: numFields × u32
//
// Every descriptor the API needs per operation is re-read from the region,
// so catalog corruption genuinely degrades operations as the paper warns.
const (
	catalogMagic   = 0x4D444232 // "MDB2"
	catalogHdrSize = 8
	tableDescSize  = 20
	fieldDescSize  = 16

	// RecordHeaderSize is the per-record header length in bytes.
	RecordHeaderSize = 8

	// FieldSize is the on-region size of every data field.
	FieldSize = 4

	// StatusFree and StatusActive are record header status values.
	StatusFree   = 0
	StatusActive = 1

	// NilIndex marks "no next record" in the header group link.
	NilIndex = 0xFFFF
)

// tableDesc is a decoded table descriptor.
type tableDesc struct {
	ID         int
	Dynamic    bool
	NumRecords int
	NumFields  int
	RecordSize int
	Offset     int
	FieldOff   int
	NumGroups  int
}

// groupDirSize is the byte length of a table's logical-group directory
// (chain heads), padded to keep records 8-byte aligned.
func groupDirSize(numGroups int) int {
	if numGroups <= 0 {
		return 0
	}
	return (2*numGroups + 7) &^ 7
}

// fieldDesc is a decoded field descriptor.
type fieldDesc struct {
	Kind     FieldKind
	HasRange bool
	Min      uint32
	Max      uint32
	Default  uint32
}

// tableLayout is the schema-derived placement of one table. New computes
// it once and stores it on the DB: the schema never changes after New, so
// the audit side and the read fast lane read it instead of recomputing it
// on every access, and never consult the corruptible on-region catalog.
type tableLayout struct {
	offset    int // table start: the group directory, then the records
	recBase   int // first record header
	recSize   int
	numRecs   int
	numFields int
	fieldOff  int // this table's field-descriptor block in the catalog
}

// record returns the region offset of record ri's header.
func (l *tableLayout) record(ri int) int { return l.recBase + l.recSize*ri }

// layoutSize computes the region size and per-table layout for a schema.
func layoutSize(s Schema) (total int, tables []tableLayout) {
	totalFields := 0
	for _, t := range s.Tables {
		totalFields += len(t.Fields)
	}
	catSize := catalogHdrSize + tableDescSize*len(s.Tables) + fieldDescSize*totalFields
	// Round the catalog to a 64-byte boundary so table starts are aligned.
	catSize = (catSize + 63) &^ 63

	tables = make([]tableLayout, len(s.Tables))
	fieldOff := catalogHdrSize + tableDescSize*len(s.Tables)
	dataOff := catSize
	for i, t := range s.Tables {
		l := tableLayout{
			offset:    dataOff,
			recBase:   dataOff + groupDirSize(t.Groups),
			recSize:   RecordHeaderSize + FieldSize*len(t.Fields),
			numRecs:   t.NumRecords,
			numFields: len(t.Fields),
			fieldOff:  fieldOff,
		}
		tables[i] = l
		fieldOff += fieldDescSize * len(t.Fields)
		dataOff = l.record(t.NumRecords)
	}
	return dataOff, tables
}

// writeCatalog serializes the schema's catalog into region and formats
// every record header to its pristine state.
func writeCatalog(region []byte, s Schema, tables []tableLayout) {
	putU32(region, 0, catalogMagic)
	putU16(region, 4, uint16(len(s.Tables)))
	putU16(region, 6, 0)
	for i, t := range s.Tables {
		l := &tables[i]
		d := catalogHdrSize + tableDescSize*i
		region[d] = uint8(i)
		var flags uint8
		if t.Dynamic {
			flags |= 1
		}
		region[d+1] = flags
		putU16(region, d+2, uint16(t.NumRecords))
		putU16(region, d+4, uint16(len(t.Fields)))
		putU16(region, d+6, uint16(l.recSize))
		putU32(region, d+8, uint32(l.offset))
		putU32(region, d+12, uint32(l.fieldOff))
		putU16(region, d+16, uint16(t.Groups))
		putU16(region, d+18, 0)

		for fi, f := range t.Fields {
			fo := l.fieldOff + fieldDescSize*fi
			region[fo] = uint8(f.Kind)
			if f.HasRange {
				region[fo+1] = 1
			} else {
				region[fo+1] = 0
			}
			putU16(region, fo+2, 0)
			putU32(region, fo+4, f.Min)
			putU32(region, fo+8, f.Max)
			putU32(region, fo+12, f.Default)
		}

		// Group-chain heads start empty.
		for g := 0; g < t.Groups; g++ {
			putU16(region, l.offset+2*g, NilIndex)
		}
		for r := 0; r < t.NumRecords; r++ {
			h := l.record(r)
			formatHeader(region, h, i, r)
			for fi, f := range t.Fields {
				putU32(region, h+RecordHeaderSize+FieldSize*fi, f.Default)
			}
		}
	}
}

// formatHeader writes a pristine free-record header at offset h.
func formatHeader(region []byte, h, tableID, recordID int) {
	region[h] = uint8(tableID)
	region[h+1] = StatusFree
	putU16(region, h+2, uint16(recordID))
	putU16(region, h+4, 0)        // groupID
	putU16(region, h+6, NilIndex) // nextIdx
}

// readCatalogHeader validates the catalog magic and returns the table count.
func readCatalogHeader(region []byte) (numTables int, err error) {
	if len(region) < catalogHdrSize {
		return 0, ErrCorruptCatalog
	}
	if getU32(region, 0) != catalogMagic {
		return 0, ErrCorruptCatalog
	}
	return int(getU16(region, 4)), nil
}

// readTableDesc decodes and bounds-validates table descriptor ti from the
// region. Validation failures surface as ErrCorruptCatalog-wrapped errors:
// a corrupted descriptor must make the operation fail, not the process.
func readTableDesc(region []byte, ti int) (tableDesc, error) {
	numTables, err := readCatalogHeader(region)
	if err != nil {
		return tableDesc{}, err
	}
	if ti < 0 || ti >= numTables {
		return tableDesc{}, &BoundsError{What: "table", Index: ti, Limit: numTables}
	}
	d := catalogHdrSize + tableDescSize*ti
	if d+tableDescSize > len(region) {
		return tableDesc{}, fmt.Errorf("descriptor %d beyond region: %w", ti, ErrCorruptCatalog)
	}
	td := tableDesc{
		ID:         int(region[d]),
		Dynamic:    region[d+1]&1 != 0,
		NumRecords: int(getU16(region, d+2)),
		NumFields:  int(getU16(region, d+4)),
		RecordSize: int(getU16(region, d+6)),
		Offset:     int(getU32(region, d+8)),
		FieldOff:   int(getU32(region, d+12)),
		NumGroups:  int(getU16(region, d+16)),
	}
	if td.RecordSize != RecordHeaderSize+FieldSize*td.NumFields {
		return tableDesc{}, fmt.Errorf("table %d record size %d inconsistent with %d fields: %w",
			ti, td.RecordSize, td.NumFields, ErrCorruptCatalog)
	}
	end := td.Offset + groupDirSize(td.NumGroups) + td.RecordSize*td.NumRecords
	if td.Offset < 0 || end > len(region) || end < td.Offset {
		return tableDesc{}, fmt.Errorf("table %d extent [%d,%d) beyond region: %w",
			ti, td.Offset, end, ErrCorruptCatalog)
	}
	fend := td.FieldOff + fieldDescSize*td.NumFields
	if td.FieldOff < 0 || fend > len(region) || fend < td.FieldOff {
		return tableDesc{}, fmt.Errorf("table %d field descriptors beyond region: %w", ti, ErrCorruptCatalog)
	}
	return td, nil
}

// readFieldDesc decodes field descriptor fi of table td.
func readFieldDesc(region []byte, td tableDesc, fi int) (fieldDesc, error) {
	if fi < 0 || fi >= td.NumFields {
		return fieldDesc{}, &BoundsError{What: "field", Index: fi, Limit: td.NumFields}
	}
	fo := td.FieldOff + fieldDescSize*fi
	return fieldDesc{
		Kind:     FieldKind(region[fo]),
		HasRange: region[fo+1] != 0,
		Min:      getU32(region, fo+4),
		Max:      getU32(region, fo+8),
		Default:  getU32(region, fo+12),
	}, nil
}

// recordOffset computes the region offset of record ri in table td,
// validating bounds against the (possibly corrupted) descriptor.
func recordOffset(region []byte, td tableDesc, ri int) (int, error) {
	if ri < 0 || ri >= td.NumRecords {
		return 0, &BoundsError{What: "record", Index: ri, Limit: td.NumRecords}
	}
	off := td.Offset + groupDirSize(td.NumGroups) + td.RecordSize*ri
	if off < 0 || off+td.RecordSize > len(region) {
		return 0, fmt.Errorf("record %d offset %d beyond region: %w", ri, off, ErrCorruptCatalog)
	}
	return off, nil
}

// Header is a decoded record header.
type Header struct {
	TableID  int
	Status   int
	RecordID int
	GroupID  int
	NextIdx  int
}

// decodeHeader reads the record header at offset h.
func decodeHeader(region []byte, h int) Header {
	return Header{
		TableID:  int(region[h]),
		Status:   int(region[h+1]),
		RecordID: int(getU16(region, h+2)),
		GroupID:  int(getU16(region, h+4)),
		NextIdx:  int(getU16(region, h+6)),
	}
}
