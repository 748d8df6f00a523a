package audit

import (
	"fmt"

	"repro/internal/memdb"
)

// RangeCheck is the dynamic-data audit (§4.3.1): for every active record of
// a dynamic table, each field whose allowable range is recorded in the
// system catalog is verified against that range. An out-of-range field is
// reset to its catalog default and — because the table is dynamic — the
// record is freed as a preemptive measure to stop error propagation.
//
// The range rules are read from the live on-region catalog, so this audit
// genuinely loses rules when the catalog itself is damaged; fields with no
// declared range are unchecked ("lack of enforceable rule", Table 4). A
// table pass decodes them once: nothing in a pass rewrites the catalog.
type RangeCheck struct {
	db       *memdb.DB
	recovery Recovery
	// FreeOnError controls whether out-of-range records in dynamic
	// tables are freed after the field reset (paper default: true).
	FreeOnError bool
	// CheckFreeRecords extends the dynamic-data audit with a robust-
	// data-structure rule: a free record's fields must hold their
	// catalog defaults (Free resets them, and pristine records start
	// there), so any deviation in free space is corruption. Default
	// true.
	CheckFreeRecords bool
	// DetectOnly runs the audit in shadow mode: findings are produced
	// and journaled but no repair touches the region. A hot standby
	// audits this way — its region is the primary's replicated state,
	// and recoveries are deferred to the primary until promotion.
	DetectOnly bool
	// Mirror, when set, fetches the replica's copy of a record (all
	// field values) for mirror-sourced repair. An out-of-range field
	// whose mirrored value is in range is restored from the mirror
	// instead of reset to the catalog default, and the record is spared
	// the preemptive free — the standby's copy is a better truth than
	// the default. ok=false falls back to the paper's reset path.
	Mirror func(table, rec int) (vals []uint32, ok bool)
}

var _ FullChecker = (*RangeCheck)(nil)

// NewRangeCheck returns a dynamic-data auditor with the paper's recovery.
func NewRangeCheck(db *memdb.DB, rec Recovery) *RangeCheck {
	return &RangeCheck{db: db, recovery: rec, FreeOnError: true, CheckFreeRecords: true}
}

// Name implements Checker.
func (c *RangeCheck) Name() string { return "dynamic-range" }

// CheckAll audits every dynamic table.
func (c *RangeCheck) CheckAll() []Finding {
	var findings []Finding
	for ti, t := range c.db.Schema().Tables {
		if !t.Dynamic {
			continue
		}
		findings = append(findings, c.CheckTable(ti)...)
	}
	return findings
}

// CheckTable audits every record of table ti under the rules decoded
// once for this pass.
func (c *RangeCheck) CheckTable(ti int) []Finding {
	schema := c.db.Schema()
	if ti < 0 || ti >= len(schema.Tables) || !schema.Tables[ti].Dynamic {
		return nil
	}
	rules := c.catalogRules(ti)
	var findings []Finding
	for ri := 0; ri < schema.Tables[ti].NumRecords; ri++ {
		findings = append(findings, c.checkRecord(ti, ri, rules)...)
	}
	return findings
}

// rangeRule is one field's enforceable range as the live catalog states it.
type rangeRule struct {
	field    int
	min, max uint32
	def      uint32
}

// catalogRules decodes table ti's range rules from the live on-region
// catalog. A field whose descriptor does not decode, or declares no range,
// has no rule.
func (c *RangeCheck) catalogRules(ti int) []rangeRule {
	var rules []rangeRule
	for fi := range c.db.Schema().Tables[ti].Fields {
		spec, err := c.db.CatalogFieldSpec(ti, fi)
		if err != nil || !spec.HasRange {
			continue // no enforceable rule for this field
		}
		rules = append(rules, rangeRule{field: fi, min: spec.Min, max: spec.Max, def: spec.Default})
	}
	return rules
}

// CheckRecord audits one record; it is also the event-triggered audit's
// unit of work after a database write (§4.3).
func (c *RangeCheck) CheckRecord(ti, ri int) []Finding {
	if ti < 0 || ti >= len(c.db.Schema().Tables) {
		return nil
	}
	return c.checkRecord(ti, ri, c.catalogRules(ti))
}

// checkRecord audits record ri of table ti against rules.
func (c *RangeCheck) checkRecord(ti, ri int, rules []rangeRule) []Finding {
	st, err := c.db.StatusDirect(ti, ri)
	if err != nil {
		return nil
	}
	if st != memdb.StatusActive {
		if c.CheckFreeRecords {
			return c.checkFreeRecord(ti, ri)
		}
		return nil
	}
	// Audits access the database directly, bypassing API locks; an
	// intervening client update invalidates the result (§4.3). The
	// version is sampled before and re-validated after the scan.
	verBefore := c.db.Version(ti, ri)

	type bad struct {
		rangeRule
		value uint32
	}
	var bads []bad
	for _, r := range rules {
		v, err := c.db.ReadFieldDirect(ti, ri, r.field)
		if err != nil {
			continue
		}
		if v < r.min || v > r.max {
			bads = append(bads, bad{rangeRule: r, value: v})
		}
	}
	if len(bads) == 0 {
		return nil
	}
	if c.db.Version(ti, ri) != verBefore {
		// Intervening update: result invalid, re-run later.
		return []Finding{{
			Class: ClassRange, Action: ActionNone, Table: ti, Record: ri,
			Field: -1, Offset: -1,
			Detail: "audit invalidated by intervening update",
		}}
	}

	// When a mirror is available, prefer restoring the replica's copy over
	// the catalog default: dynamic data has no pristine image, so the
	// standby is the only source that can recover the actual value.
	var mirrorVals []uint32
	haveMirror := false
	if c.Mirror != nil && !c.DetectOnly {
		mirrorVals, haveMirror = c.Mirror(ti, ri)
	}

	var findings []Finding
	mirrored := 0
	for _, b := range bads {
		off, err := c.db.TrueRecordOffset(ti, ri)
		if err != nil {
			continue
		}
		action, newVal := ActionReset, b.def
		detail := fmt.Sprintf("value %d outside declared range", b.value)
		if haveMirror && b.field < len(mirrorVals) {
			if mv := mirrorVals[b.field]; mv >= b.min && mv <= b.max {
				action, newVal = ActionMirror, mv
				detail = fmt.Sprintf("value %d outside declared range, restored %d from mirror", b.value, mv)
			}
		}
		if c.DetectOnly {
			action = ActionNone
			detail += " (shadow: recovery deferred)"
		} else if err := c.db.WriteFieldDirect(ti, ri, b.field, newVal); err != nil {
			continue
		}
		if action == ActionMirror {
			mirrored++
		}
		f := Finding{
			Class:  ClassRange,
			Action: action,
			Table:  ti,
			Record: ri,
			Field:  b.field,
			Offset: off + memdb.RecordHeaderSize + memdb.FieldSize*b.field,
			Length: memdb.FieldSize,
			Detail: detail,
		}
		findings = append(findings, f)
		c.recovery.note(f)
		c.db.NoteAuditError(ti)
	}
	// A record fully restored from the mirror holds its true values again;
	// freeing it would needlessly drop a live call.
	if c.FreeOnError && !c.DetectOnly && mirrored < len(bads) {
		off, _ := c.db.TrueRecordOffset(ti, ri)
		if err := c.db.FreeRecordDirect(ti, ri); err == nil {
			f := Finding{
				Class:  ClassRange,
				Action: ActionFree,
				Table:  ti,
				Record: ri,
				Field:  -1,
				Offset: off,
				Length: memdb.RecordHeaderSize,
				Detail: "record freed preemptively after range violation",
			}
			findings = append(findings, f)
			c.recovery.note(f)
		}
	}
	return findings
}

// checkFreeRecord verifies a free record still holds its catalog defaults
// and resets any deviating field.
func (c *RangeCheck) checkFreeRecord(ti, ri int) []Finding {
	schema := c.db.Schema()
	var findings []Finding
	for fi, spec := range schema.Tables[ti].Fields {
		v, err := c.db.ReadFieldDirect(ti, ri, fi)
		if err != nil || v == spec.Default {
			continue
		}
		off, err := c.db.TrueRecordOffset(ti, ri)
		if err != nil {
			continue
		}
		action := ActionReset
		detail := fmt.Sprintf("free record holds %d, expected default %d", v, spec.Default)
		if c.DetectOnly {
			action = ActionNone
			detail += " (shadow: recovery deferred)"
		} else if err := c.db.WriteFieldDirect(ti, ri, fi, spec.Default); err != nil {
			continue
		}
		f := Finding{
			Class:  ClassRange,
			Action: action,
			Table:  ti,
			Record: ri,
			Field:  fi,
			Offset: off + memdb.RecordHeaderSize + memdb.FieldSize*fi,
			Length: memdb.FieldSize,
			Detail: detail,
		}
		findings = append(findings, f)
		c.recovery.note(f)
		c.db.NoteAuditError(ti)
	}
	return findings
}
