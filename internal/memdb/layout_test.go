package memdb

import (
	"errors"
	"testing"
	"testing/quick"
)

func TestLayoutTablesAreContiguousAndAligned(t *testing.T) {
	s := testSchema()
	total, tables := layoutSize(s)
	if tables[0].offset%64 != 0 {
		t.Fatalf("first table offset %d not 64-byte aligned", tables[0].offset)
	}
	prevEnd := tables[0].offset
	for i, tbl := range s.Tables {
		if tables[i].offset != prevEnd {
			t.Fatalf("table %d starts at %d, want contiguous %d", i, tables[i].offset, prevEnd)
		}
		recSize := RecordHeaderSize + FieldSize*len(tbl.Fields)
		prevEnd += recSize * tbl.NumRecords
	}
	if total != prevEnd {
		t.Fatalf("total size %d, want %d", total, prevEnd)
	}
}

func TestCatalogRoundTrip(t *testing.T) {
	db := mustDB(t)
	region := db.Raw()
	n, err := readCatalogHeader(region)
	if err != nil {
		t.Fatalf("readCatalogHeader: %v", err)
	}
	if n != len(testSchema().Tables) {
		t.Fatalf("numTables = %d, want %d", n, len(testSchema().Tables))
	}
	for ti, tbl := range testSchema().Tables {
		td, err := readTableDesc(region, ti)
		if err != nil {
			t.Fatalf("readTableDesc(%d): %v", ti, err)
		}
		if td.ID != ti {
			t.Errorf("table %d: ID = %d", ti, td.ID)
		}
		if td.Dynamic != tbl.Dynamic {
			t.Errorf("table %d: Dynamic = %v, want %v", ti, td.Dynamic, tbl.Dynamic)
		}
		if td.NumRecords != tbl.NumRecords {
			t.Errorf("table %d: NumRecords = %d, want %d", ti, td.NumRecords, tbl.NumRecords)
		}
		if td.NumFields != len(tbl.Fields) {
			t.Errorf("table %d: NumFields = %d, want %d", ti, td.NumFields, len(tbl.Fields))
		}
		for fi, f := range tbl.Fields {
			fd, err := readFieldDesc(region, td, fi)
			if err != nil {
				t.Fatalf("readFieldDesc(%d,%d): %v", ti, fi, err)
			}
			if fd.Kind != f.Kind || fd.HasRange != f.HasRange ||
				fd.Min != f.Min || fd.Max != f.Max || fd.Default != f.Default {
				t.Errorf("table %d field %d: %+v vs spec %+v", ti, fi, fd, f)
			}
		}
	}
}

func TestPristineHeaders(t *testing.T) {
	db := mustDB(t)
	for ti, tbl := range db.Schema().Tables {
		for ri := 0; ri < tbl.NumRecords; ri++ {
			off, err := db.TrueRecordOffset(ti, ri)
			if err != nil {
				t.Fatalf("TrueRecordOffset(%d,%d): %v", ti, ri, err)
			}
			h := db.HeaderAt(off)
			if h.TableID != ti || h.RecordID != ri {
				t.Fatalf("header at (%d,%d) = %+v", ti, ri, h)
			}
			if h.Status != StatusFree {
				t.Fatalf("pristine record (%d,%d) not free: %+v", ti, ri, h)
			}
			if h.NextIdx != NilIndex {
				t.Fatalf("pristine record (%d,%d) has link %d", ti, ri, h.NextIdx)
			}
		}
	}
}

func TestCorruptMagicFailsOperations(t *testing.T) {
	db := mustDB(t)
	c := mustClient(t, db)
	db.Raw()[0] ^= 0xFF
	_, err := c.ReadRec(1, 0)
	if !errors.Is(err, ErrCorruptCatalog) {
		t.Fatalf("ReadRec with corrupt magic: %v, want ErrCorruptCatalog", err)
	}
}

func TestCorruptDescriptorOffsetDetected(t *testing.T) {
	db := mustDB(t)
	// Blast table 1's offset field far beyond the region.
	d := catalogHdrSize + tableDescSize*1
	putU32(db.Raw(), d+8, 0x7FFFFFFF)
	_, err := readTableDesc(db.Raw(), 1)
	if !errors.Is(err, ErrCorruptCatalog) {
		t.Fatalf("readTableDesc with wild offset: %v, want ErrCorruptCatalog", err)
	}
}

func TestCorruptRecordSizeDetected(t *testing.T) {
	db := mustDB(t)
	d := catalogHdrSize + tableDescSize*1
	putU16(db.Raw(), d+6, 9999)
	_, err := readTableDesc(db.Raw(), 1)
	if !errors.Is(err, ErrCorruptCatalog) {
		t.Fatalf("readTableDesc with bad record size: %v, want ErrCorruptCatalog", err)
	}
}

func TestTableIndexOutOfRange(t *testing.T) {
	db := mustDB(t)
	var be *BoundsError
	_, err := readTableDesc(db.Raw(), 99)
	if !errors.As(err, &be) {
		t.Fatalf("readTableDesc(99): %v, want BoundsError", err)
	}
	_, err = readTableDesc(db.Raw(), -1)
	if !errors.As(err, &be) {
		t.Fatalf("readTableDesc(-1): %v, want BoundsError", err)
	}
}

func TestBoundsErrorMessage(t *testing.T) {
	e := &BoundsError{What: "record", Index: 12, Limit: 8}
	want := "memdb: record index 12 out of range (limit 8)"
	if e.Error() != want {
		t.Fatalf("Error() = %q, want %q", e.Error(), want)
	}
}

// Property: for any (small) valid schema shape, every record offset
// computed from the schema matches the offset derived through the
// on-region catalog, and all records fall inside the region.
func TestPropertyLayoutOffsetsConsistent(t *testing.T) {
	f := func(nRecA, nRecB, nFldA, nFldB uint8) bool {
		ra := int(nRecA%30) + 1
		rb := int(nRecB%30) + 1
		fa := int(nFldA%6) + 1
		fb := int(nFldB%6) + 1
		s := Schema{Tables: []TableSpec{
			{Name: "A", NumRecords: ra, Fields: make([]FieldSpec, fa)},
			{Name: "B", Dynamic: true, NumRecords: rb, Fields: make([]FieldSpec, fb)},
		}}
		for i := range s.Tables[0].Fields {
			s.Tables[0].Fields[i] = FieldSpec{Name: string(rune('a' + i)), Kind: Static}
		}
		for i := range s.Tables[1].Fields {
			s.Tables[1].Fields[i] = FieldSpec{Name: string(rune('a' + i)), Kind: Dynamic}
		}
		db, err := New(s)
		if err != nil {
			return false
		}
		for ti, tbl := range s.Tables {
			td, err := readTableDesc(db.Raw(), ti)
			if err != nil {
				return false
			}
			for ri := 0; ri < tbl.NumRecords; ri++ {
				trueOff, err := db.TrueRecordOffset(ti, ri)
				if err != nil {
					return false
				}
				catOff, err := recordOffset(db.Raw(), td, ri)
				if err != nil {
					return false
				}
				if trueOff != catOff {
					return false
				}
				if trueOff+td.RecordSize > db.Size() {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// The audit side touches every record of a table on every sweep, so the
// accessors it calls per record must not allocate; a consistency check
// allocates only its visited set, once per call.
func TestAuditAccessorsDoNotAllocate(t *testing.T) {
	db, c := chainedDB(t)
	for g := 0; g < 4; g++ {
		if _, err := c.Alloc(0, g); err != nil {
			t.Fatal(err)
		}
	}
	off, err := db.TrueRecordOffset(0, 3)
	if err != nil {
		t.Fatal(err)
	}
	var sink int
	for _, tc := range []struct {
		name string
		want float64
		fn   func()
	}{
		{"TrueRecordOffset", 0, func() { o, _ := db.TrueRecordOffset(0, 3); sink += o }},
		{"StatusDirect", 0, func() { st, _ := db.StatusDirect(0, 3); sink += st }},
		{"ReadFieldDirect", 0, func() { v, _ := db.ReadFieldDirect(0, 3, 1); sink += int(v) }},
		{"HeaderAt", 0, func() { sink += db.HeaderAt(off).RecordID }},
		{"GroupsConsistent", 1, func() {
			if ok, err := db.GroupsConsistent(0); !ok || err != nil {
				t.Fatalf("GroupsConsistent = (%v, %v)", ok, err)
			}
		}},
	} {
		if n := testing.AllocsPerRun(100, tc.fn); n != tc.want {
			t.Errorf("%s: %.0f allocations per call, want %.0f", tc.name, n, tc.want)
		}
	}
	_ = sink
}
