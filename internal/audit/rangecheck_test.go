package audit

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/memdb"
)

// sizedSchema is controllerSchema with n records in each dynamic table,
// index fields bounded by n and the Resource table chained into four
// groups, like the served call-processing schema.
func sizedSchema(n int) memdb.Schema {
	s := controllerSchema()
	for ti := range s.Tables {
		if s.Tables[ti].Dynamic {
			s.Tables[ti].NumRecords = n
		}
	}
	for _, ti := range []int{tblProc, tblConn, tblRes} {
		s.Tables[ti].Fields[0].Max = uint32(n - 1)
	}
	s.Tables[tblRes].Groups = 4
	return s
}

// halfFullDB builds a sizedSchema(n) database with every even record of
// each dynamic table active and holding in-range values. The headers are
// set directly and the Resource chains rebuilt from their labels, which
// keeps set-up linear in n.
func halfFullDB(t testing.TB, n int) *memdb.DB {
	t.Helper()
	db, err := memdb.New(sizedSchema(n))
	if err != nil {
		t.Fatal(err)
	}
	raw := db.Raw()
	for _, ti := range []int{tblProc, tblConn, tblRes} {
		for ri := 0; ri < n; ri += 2 {
			off, err := db.TrueRecordOffset(ti, ri)
			if err != nil {
				t.Fatal(err)
			}
			raw[off+1] = memdb.StatusActive
			binary.LittleEndian.PutUint16(raw[off+4:], uint16(ri/2%4)) // group label
			if err := db.WriteFieldDirect(ti, ri, 0, uint32(n-1-ri)); err != nil {
				t.Fatal(err)
			}
		}
	}
	if _, err := db.RebuildGroups(tblRes); err != nil {
		t.Fatal(err)
	}
	return db
}

// A clean sweep's allocations must not grow with the region: the per-record
// path allocates nothing, so 64x the records costs no extra allocations.
func TestCleanSweepAllocsIndependentOfRegionSize(t *testing.T) {
	allocs := func(n int) (structural, rng float64) {
		db := halfFullDB(t, n)
		sc := NewStructuralCheck(db, Recovery{})
		rc := NewRangeCheck(db, Recovery{})
		for _, c := range []FullChecker{sc, rc} {
			if fs := c.CheckAll(); len(fs) != 0 {
				t.Fatalf("%d records: clean %s sweep found %v", n, c.Name(), fs)
			}
		}
		return testing.AllocsPerRun(3, func() { sc.CheckAll() }),
			testing.AllocsPerRun(3, func() { rc.CheckAll() })
	}
	smallS, smallR := allocs(256)
	largeS, largeR := allocs(16384)
	if smallS != largeS {
		t.Errorf("structural sweep: %.0f allocations at 256 records, %.0f at 16384", smallS, largeS)
	}
	if smallR != largeR {
		t.Errorf("range sweep: %.0f allocations at 256 records, %.0f at 16384", smallR, largeR)
	}
}

// fieldDescOffset returns the region offset of field fi's descriptor in
// table ti's catalog entry, as the on-region catalog records it.
func fieldDescOffset(db *memdb.DB, ti, fi int) int {
	const catalogHdrSize, tableDescSize, fieldDescSize = 8, 20, 16
	d := catalogHdrSize + tableDescSize*ti
	return int(binary.LittleEndian.Uint32(db.Raw()[d+12:])) + fieldDescSize*fi
}

// The range rules are read from the live catalog on every pass: damage to
// a descriptor between passes changes what the next pass enforces, and a
// catalog reload restores the declared rule.
func TestRangeCheckReadsLiveCatalogEachPass(t *testing.T) {
	const statusField = 1 // Process.Status, declared range [0, 3]
	for _, tc := range []struct {
		name    string
		corrupt func(raw []byte, fd int)
		value   uint32 // Status value written before the second pass
		flagged bool   // whether the corrupted rule flags it
	}{
		{"rule dropped", func(raw []byte, fd int) { raw[fd+1] = 0 }, 999, false},
		{"max shrunk", func(raw []byte, fd int) { binary.LittleEndian.PutUint32(raw[fd+8:], 1) }, 2, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			db := newTestDB(t)
			proc, _, _ := setUpCall(t, db)
			static := NewStaticCheck(db, Recovery{}) // golden checksums of the intact catalog
			rc := NewRangeCheck(db, Recovery{})
			rc.FreeOnError = false
			if fs := rc.CheckAll(); len(fs) != 0 {
				t.Fatalf("first pass found %v", fs)
			}
			tc.corrupt(db.Raw(), fieldDescOffset(db, tblProc, statusField))
			if err := db.WriteFieldDirect(tblProc, proc, statusField, tc.value); err != nil {
				t.Fatal(err)
			}
			fs := rc.CheckAll()
			if got := len(fs) != 0; got != tc.flagged {
				t.Fatalf("pass under corrupted rule: findings %v, want flagged=%v", fs, tc.flagged)
			}
			if tc.flagged && (fs[0].Record != proc || fs[0].Field != statusField) {
				t.Fatalf("pass under corrupted rule flagged %+v", fs[0])
			}

			// The static audit reloads the catalog; the declared rule
			// [0, 3] applies again from the next pass on.
			if fs := static.CheckAll(); len(fs) == 0 {
				t.Fatal("static audit missed the catalog damage")
			}
			if err := db.WriteFieldDirect(tblProc, proc, statusField, 999); err != nil {
				t.Fatal(err)
			}
			fs = rc.CheckAll()
			if len(fs) != 1 || fs[0].Record != proc || fs[0].Field != statusField {
				t.Fatalf("pass after reload: findings %v, want one on Status", fs)
			}
			if err := db.WriteFieldDirect(tblProc, proc, statusField, 2); err != nil {
				t.Fatal(err)
			}
			if fs := rc.CheckAll(); len(fs) != 0 {
				t.Fatalf("pass after reload flagged in-range value: %v", fs)
			}
		})
	}
}

// damage applies the same seeded mix of corruptions to a database: values
// in and out of range in active records, non-default values in free
// records, and in-range client writes in between.
func damage(t *testing.T, db *memdb.DB, c *memdb.Client, rng *rand.Rand, n int) {
	t.Helper()
	for i := 0; i < 40; i++ {
		ti := tblProc + rng.Intn(3)
		ri := rng.Intn(n)
		fi := rng.Intn(len(db.Schema().Tables[ti].Fields))
		st, err := db.StatusDirect(ti, ri)
		if err != nil {
			t.Fatal(err)
		}
		switch {
		case rng.Intn(3) == 0 && st == memdb.StatusActive:
			// An intervening client write, in range.
			if err := c.WriteFld(ti, ri, 0, uint32(rng.Intn(n))); err != nil {
				t.Fatal(err)
			}
		case st == memdb.StatusActive:
			// Values span both sides of every rule's bounds.
			if err := db.WriteFieldDirect(ti, ri, fi, uint32(rng.Intn(n+8))); err != nil {
				t.Fatal(err)
			}
		default:
			if err := db.WriteFieldDirect(ti, ri, fi, uint32(1+rng.Intn(7))); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// Decoding the rules once per table pass must be invisible: against a
// reference that hands every record to CheckRecord, which decodes them per
// record, the findings and the repaired region are identical in every
// repair configuration.
func TestRangeCheckTableMatchesPerRecordReference(t *testing.T) {
	const n = 64
	configs := []struct {
		name  string
		setup func(rc *RangeCheck, db *memdb.DB)
	}{
		{"default", func(*RangeCheck, *memdb.DB) {}},
		{"detect-only", func(rc *RangeCheck, _ *memdb.DB) { rc.DetectOnly = true }},
		{"mirror", func(rc *RangeCheck, db *memdb.DB) {
			// The mirror holds in-range values for every fourth record
			// only; the others fall back to the reset-and-free path.
			rc.Mirror = func(ti, ri int) ([]uint32, bool) {
				if ri%4 != 0 {
					return nil, false
				}
				return make([]uint32, len(db.Schema().Tables[ti].Fields)), true
			}
		}},
		{"no-free", func(rc *RangeCheck, _ *memdb.DB) {
			rc.FreeOnError = false
			rc.CheckFreeRecords = false
		}},
	}
	for _, cfg := range configs {
		for seed := int64(1); seed <= 5; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", cfg.name, seed), func(t *testing.T) {
				var findings [2][]Finding
				var regions [2][]byte
				for side := range findings {
					db := halfFullDB(t, n)
					c, err := db.Connect()
					if err != nil {
						t.Fatal(err)
					}
					// Every finding also lands an in-range client write on
					// a later record, so writes intervene mid-pass too.
					wrng := rand.New(rand.NewSource(seed))
					rc := NewRangeCheck(db, Recovery{OnFinding: func(f Finding) {
						ri := f.Record + 1 + wrng.Intn(4)
						if st, err := db.StatusDirect(f.Table, ri); err == nil && st == memdb.StatusActive {
							if err := c.WriteFld(f.Table, ri, 0, uint32(wrng.Intn(n))); err != nil {
								t.Error(err)
							}
						}
					}})
					cfg.setup(rc, db)
					rng := rand.New(rand.NewSource(seed))
					for pass := 0; pass < 3; pass++ {
						damage(t, db, c, rng, n)
						for ti := tblProc; ti <= tblRes; ti++ {
							if side == 0 {
								findings[side] = append(findings[side], rc.CheckTable(ti)...)
								continue
							}
							for ri := 0; ri < n; ri++ {
								findings[side] = append(findings[side], rc.CheckRecord(ti, ri)...)
							}
						}
					}
					regions[side] = append([]byte(nil), db.Raw()...)
				}
				if len(findings[0]) == 0 {
					t.Fatal("damage produced no findings")
				}
				if !reflect.DeepEqual(findings[0], findings[1]) {
					t.Fatalf("findings differ:\nCheckTable: %v\nreference:  %v", findings[0], findings[1])
				}
				if string(regions[0]) != string(regions[1]) {
					t.Fatal("final regions differ")
				}
			})
		}
	}
}
