package memdb

// Read fast lane. The target controller's call-processing traffic is
// overwhelmingly reads of the shared memory region; serializing them on the
// single-writer owner thread makes that thread the bottleneck. A View gives
// other goroutines optimistic, validated access to the read-only API subset
// (DBread_rec, DBread_fld, record status) without weakening the
// single-writer contract for mutations and audits:
//
//   - Every region mutation runs inside db.mutate(), which takes the region
//     write lock and bumps the seqlock generation counter to odd on entry
//     and back to even on exit.
//   - A View read loads the generation (odd → writer active, retry), copies
//     the bytes it needs out of the region under the read lock, then
//     reloads the generation; an unchanged even value proves no mutation
//     overlapped the copy.
//   - After viewMaxAttempts failed validations the read gives up with
//     ErrContended and the caller falls back to the serialized owner-thread
//     path, so readers can never starve and never spin unbounded.
//
// The RWMutex makes the copy itself race-free (a classic seqlock reads
// concurrently-written plain bytes, which the Go race detector rightly
// flags); the generation counter preserves the seqlock property that a
// reader accepts only values from a single stable interval — no torn reads
// across the fields of one record.
//
// Deliberate trade-offs, documented in DESIGN.md: View reads use the
// schema's true layout (immune to on-region catalog corruption), skip the
// advisory table locks, skip the per-access audit notification (charge) and
// cost accounting, and batch their shadow read-frequency accounting through
// FoldViewReads instead of touching shadow metadata inline.

import (
	"errors"
	"runtime"

	"repro/internal/metrics"
)

// viewMaxAttempts bounds the optimistic retry loop of one View read.
const viewMaxAttempts = 4

// ErrContended reports that a View read could not validate against a stable
// region generation within the retry budget. Callers should fall back to
// the serialized executor path, which cannot be contended.
var ErrContended = errors.New("memdb: read view contended")

// mutate brackets a region mutation for the seqlock protocol:
// defer db.mutate()() takes the write lock and moves the generation to odd,
// and the returned func moves it back to even and unlocks. Owner-thread
// only, non-reentrant.
func (db *DB) mutate() func() {
	db.regionMu.Lock()
	db.regionVer.Add(1) // odd: mutation in progress
	return func() {
		db.regionVer.Add(1) // even: stable
		db.regionMu.Unlock()
	}
}

// View provides optimistic validated reads of the region from goroutines
// other than the database owner. A View is safe for concurrent use by any
// number of goroutines and stays valid for the life of the DB. It locates
// records through the DB's schema-derived layout, never the (corruptible,
// and concurrently repairable) on-region catalog; the layout is written
// once by New, so reading it needs no lock.
type View struct {
	db *DB

	// Fast-lane telemetry. The zero-value counters make an unbound View
	// safe to use; BindMetrics repoints them into a registry.
	reads     *metrics.Counter
	retries   *metrics.Counter
	fallbacks *metrics.Counter
}

// ReadView returns a read view over the database. Multiple calls return
// independent views sharing the same counters' semantics.
func (db *DB) ReadView() *View {
	return &View{
		db:        db,
		reads:     &metrics.Counter{},
		retries:   &metrics.Counter{},
		fallbacks: &metrics.Counter{},
	}
}

// BindMetrics registers the fast-lane counters in reg.
func (v *View) BindMetrics(reg *metrics.Registry) {
	v.reads = reg.Counter("fastlane.reads")
	v.retries = reg.Counter("fastlane.retries")
	v.fallbacks = reg.Counter("fastlane.fallbacks")
}

// Reads returns the count of validated fast-lane reads.
func (v *View) Reads() uint64 { return v.reads.Load() }

// Retries returns the count of generation-validation retries.
func (v *View) Retries() uint64 { return v.retries.Load() }

// Fallbacks returns the count of reads abandoned with ErrContended.
func (v *View) Fallbacks() uint64 { return v.fallbacks.Load() }

// locate bounds-checks table and rec, mirroring the executor path's errors
// exactly so the wire mapping is byte-identical either way.
func (v *View) locate(table, rec int) (*tableLayout, int, error) {
	layout := v.db.layout
	if table < 0 || table >= len(layout) {
		return nil, 0, &BoundsError{What: "table", Index: table, Limit: len(layout)}
	}
	t := &layout[table]
	if rec < 0 || rec >= t.numRecs {
		return nil, 0, &BoundsError{What: "record", Index: rec, Limit: t.numRecs}
	}
	return t, t.record(rec), nil
}

// stable returns the current even generation, or ok=false when a mutation
// is in flight (after yielding, so the writer can finish).
func (v *View) stable() (uint64, bool) {
	ver := v.db.regionVer.Load()
	if ver&1 != 0 {
		v.retries.Inc()
		runtime.Gosched()
		return 0, false
	}
	return ver, true
}

// validate reports whether the generation is still ver after a copy.
func (v *View) validate(ver uint64) bool {
	if v.db.regionVer.Load() == ver {
		return true
	}
	v.retries.Inc()
	return false
}

func (v *View) noteRead(table int) {
	v.reads.Inc()
	v.db.viewReads[table].Add(1)
}

// ReadRec returns all field values of record rec in table, like
// Client.ReadRec but lock-free and without audit accounting.
func (v *View) ReadRec(table, rec int) ([]uint32, error) {
	t, off, err := v.locate(table, rec)
	if err != nil {
		return nil, err
	}
	vals := make([]uint32, t.numFields)
	for attempt := 0; attempt < viewMaxAttempts; attempt++ {
		ver, ok := v.stable()
		if !ok {
			continue
		}
		v.db.regionMu.RLock()
		for fi := range vals {
			vals[fi] = getU32(v.db.region, off+RecordHeaderSize+FieldSize*fi)
		}
		v.db.regionMu.RUnlock()
		if v.validate(ver) {
			v.noteRead(table)
			return vals, nil
		}
	}
	v.fallbacks.Inc()
	return nil, ErrContended
}

// ReadFld returns one field value, like Client.ReadFld.
func (v *View) ReadFld(table, rec, field int) (uint32, error) {
	t, off, err := v.locate(table, rec)
	if err != nil {
		return 0, err
	}
	if field < 0 || field >= t.numFields {
		return 0, &BoundsError{What: "field", Index: field, Limit: t.numFields}
	}
	fo := off + RecordHeaderSize + FieldSize*field
	for attempt := 0; attempt < viewMaxAttempts; attempt++ {
		ver, ok := v.stable()
		if !ok {
			continue
		}
		v.db.regionMu.RLock()
		val := getU32(v.db.region, fo)
		v.db.regionMu.RUnlock()
		if v.validate(ver) {
			v.noteRead(table)
			return val, nil
		}
	}
	v.fallbacks.Inc()
	return 0, ErrContended
}

// Status returns the status byte of record rec in table, like
// Client.Status.
func (v *View) Status(table, rec int) (int, error) {
	_, off, err := v.locate(table, rec)
	if err != nil {
		return 0, err
	}
	for attempt := 0; attempt < viewMaxAttempts; attempt++ {
		ver, ok := v.stable()
		if !ok {
			continue
		}
		v.db.regionMu.RLock()
		st := int(v.db.region[off+1])
		v.db.regionMu.RUnlock()
		if v.validate(ver) {
			v.noteRead(table)
			return st, nil
		}
	}
	v.fallbacks.Inc()
	return 0, ErrContended
}

// FoldViewReads drains the per-table fast-lane read counts into the shadow
// activity stats so the prioritized audit trigger (§4.4.1) still sees read
// frequency for tables served mostly off the executor. Owner-thread only;
// RefreshMetrics calls it before publishing table gauges.
func (db *DB) FoldViewReads() {
	for i := range db.viewReads {
		if n := db.viewReads[i].Swap(0); n != 0 {
			db.shadow.tables[i].Reads += n
		}
	}
}
