package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/audit"
	"repro/internal/callproc"
	"repro/internal/isa"
	"repro/internal/memdb"
	"repro/internal/pecos"
	"repro/internal/proc"
	"repro/internal/vm"
	"repro/internal/wal"
)

// The probes time calls into each package's public functions from the
// driver process, on regions built like the server's. They run after the
// server has stopped, so they never compete with the measured load. Each
// timed call (or, for nanosecond-scale memdb calls, each batch of calls)
// is one probe span.

const (
	probeMemdb = iota
	probeAudit
	probeWALAppend
	probeWALSync
	probeWALCheckpoint
	probeWALRecover
	probeProc
	probeVM
)

var probeNames = [...]string{
	"probe.memdb", "probe.audit", "probe.wal.append", "probe.wal.sync",
	"probe.wal.checkpoint", "probe.wal.recover", "probe.proc", "probe.vm",
}

// prober records probe spans and collects probe metrics.
type prober struct {
	base  time.Time
	spans spanLog
	out   map[string]float64
}

func (p *prober) time(probe int, fn func()) time.Duration {
	t0 := time.Now()
	fn()
	t1 := time.Now()
	p.spans.add(spanProbe, uint32(probe), int64(t0.Sub(p.base)), int64(t1.Sub(p.base)))
	return t1.Sub(t0)
}

func schemaFor(callRecords int) memdb.Schema {
	return callproc.Schema(callproc.SchemaConfig{ConfigRecords: 16, ConfigFields: 4, CallRecords: callRecords})
}

// seededDB builds a region of the given size with n active Resource
// records, the state the workload's seeding leaves behind.
func seededDB(callRecords, n int) (*memdb.DB, *memdb.Client, []int, error) {
	db, err := memdb.New(schemaFor(callRecords))
	if err != nil {
		return nil, nil, nil, err
	}
	cl, err := db.Connect()
	if err != nil {
		return nil, nil, nil, err
	}
	recs := make([]int, n)
	for i := range recs {
		if recs[i], err = cl.Alloc(callproc.TblRes, i%callproc.ResourceBanks); err != nil {
			return nil, nil, nil, err
		}
	}
	return db, cl, recs, nil
}

func runProbes(w *workload, seed int64, dir string, base time.Time) (map[string]float64, *spanLog, error) {
	p := &prober{base: base, out: map[string]float64{}}
	steps := []func(*workload, int64, string) error{p.memdbProbe, p.auditProbe, p.walProbe, p.procProbe}
	for _, step := range steps {
		if err := step(w, seed, dir); err != nil {
			return nil, nil, err
		}
	}
	return p.out, &p.spans, nil
}

// memdbProbe times the API calls the server's executor and fast lane make,
// per call, in batches on a region of the workload's size.
func (p *prober) memdbProbe(w *workload, _ int64, _ string) error {
	db, cl, recs, err := seededDB(w.callRecords, conns*w.slots)
	if err != nil {
		return err
	}
	rv := db.ReadView()
	// A batch is 4000 calls or 20 ms, whichever ends first: on the large
	// region a MOVE walks a group chain for hundreds of microseconds.
	const maxBatch, batchTime, batches = 4000, 20 * time.Millisecond, 7
	var failed error
	measure := func(name string, call func(i int) error) {
		per := make([]float64, 0, batches)
		i := 0
		for b := 0; b < batches; b++ {
			n := 0
			d := p.time(probeMemdb, func() {
				t0 := time.Now()
				for ; n < maxBatch && (n%64 != 0 || time.Since(t0) < batchTime); n++ {
					if err := call(i); err != nil && failed == nil {
						failed = fmt.Errorf("memdb probe %s: %w", name, err)
					}
					i++
				}
			})
			per = append(per, float64(d.Nanoseconds())/float64(n))
		}
		p.out[name] = median(per)
	}
	rec := func(i int) int { return recs[(i*7)%len(recs)] }
	measure("memdb.view_read_fld_ns", func(i int) error {
		_, err := rv.ReadFld(callproc.TblRes, rec(i), callproc.FldResQuality)
		return err
	})
	measure("memdb.read_rec_ns", func(i int) error {
		_, err := cl.ReadRec(callproc.TblRes, rec(i))
		return err
	})
	measure("memdb.write_fld_ns", func(i int) error {
		return cl.WriteFld(callproc.TblRes, rec(i), callproc.FldResQuality, uint32(i%101))
	})
	vals := []uint32{0, 1, 50}
	measure("memdb.write_rec_ns", func(i int) error {
		vals[2] = uint32(i % 101)
		return cl.WriteRec(callproc.TblRes, rec(i), vals)
	})
	measure("memdb.move_ns", func(i int) error {
		return cl.Move(callproc.TblRes, rec(i), i%callproc.ResourceBanks)
	})
	measure("memdb.alloc_free_ns", func(i int) error {
		r, err := cl.Alloc(callproc.TblRes, i%callproc.ResourceBanks)
		if err != nil {
			return err
		}
		return cl.Free(callproc.TblRes, r)
	})
	return failed
}

// auditProbe times each checker's CheckAll on the small (256 call records)
// and large (32768) regions, each half full, and counts the records one
// sweep of a shard of the workload's region covers.
func (p *prober) auditProbe(w *workload, _ int64, _ string) error {
	for _, size := range []struct {
		tag     string
		records int
	}{{"small", 256}, {"large", 32768}} {
		db, _, _, err := seededDB(size.records, size.records/2)
		if err != nil {
			return err
		}
		checks := []struct {
			name string
			c    audit.FullChecker
		}{
			{"static", audit.NewStaticCheck(db, audit.Recovery{})},
			{"structural", audit.NewStructuralCheck(db, audit.Recovery{})},
			{"dynamic_range", audit.NewRangeCheck(db, audit.Recovery{})},
		}
		for _, ch := range checks {
			var per []float64
			for i := 0; i < 5; i++ {
				var fs []audit.Finding
				d := p.time(probeAudit, func() { fs = ch.c.CheckAll() })
				if len(fs) != 0 {
					return fmt.Errorf("audit probe: %s found %d faults in a clean %s region", ch.name, len(fs), size.tag)
				}
				per = append(per, float64(d.Nanoseconds())/1e6)
			}
			p.out[fmt.Sprintf("audit.probe_%s_%s_ms", ch.name, size.tag)] = median(per)
		}
	}
	// Records per sweep is derived from the schema, not observed: the
	// records of one shard's stripe, which one sweep covers in full.
	schemas, err := memdb.ShardSchemas(schemaFor(w.callRecords), w.shards)
	if err != nil {
		return err
	}
	total := 0
	for _, t := range schemas[0].Tables {
		total += t.NumRecords
	}
	p.out["audit.records_per_sweep"] = float64(total)
	return nil
}

// walRecords turns the first n mutations of connection 0's op stream into
// log records, as the server logs them.
func walRecords(w *workload, seed int64, n int) []wal.Record {
	st := newStream(w, seed, 0)
	out := make([]wal.Record, 0, n)
	for len(out) < n {
		o := st.next()
		r := wal.Record{Table: callproc.TblRes, Rec: o.slot}
		switch o.kind {
		case kWriteFld:
			r.Op, r.Field, r.Vals = wal.OpWriteFld, int32(o.field), []uint32{o.vals[0]}
		case kProc:
			r.Op, r.Field, r.Vals = wal.OpWriteFld, callproc.FldResQuality, []uint32{min(o.vals[0], 100)}
		case kWriteRec:
			r.Op, r.Vals = wal.OpWriteRec, append([]uint32(nil), o.vals[:]...)
		case kMove:
			r.Op, r.Aux = wal.OpMove, int32(o.bank)
		case kChurn:
			out = append(out, wal.Record{Op: wal.OpAlloc, Table: callproc.TblRes, Rec: o.slot, Aux: int32(o.bank)})
			r.Op = wal.OpFree
		default:
			continue
		}
		out = append(out, r)
	}
	return out[:n]
}

// walProbe times Append before and after the 8192-record tail cap, Sync,
// Checkpoint and Recover, and sizes the workload's log records.
func (p *prober) walProbe(w *workload, seed int64, dir string) error {
	const tailCap = 8192
	recs := walRecords(w, seed, 4096)
	bytes := 0
	for _, r := range recs {
		bytes += wal.EncodedSize(r)
	}
	p.out["wal.bytes_per_op"] = float64(bytes) / float64(len(recs))

	root, err := os.MkdirTemp(dir, "walprobe-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(root)

	// Append, cold then past the tail cap.
	la, err := wal.Open(wal.Config{Dir: filepath.Join(root, "append")}, 0)
	if err != nil {
		return err
	}
	var failed error
	appendN := func(l *wal.Log, n int) {
		for i := 0; i < n; i++ {
			r := recs[i%len(recs)]
			r.Seq = 0
			if _, err := l.Append(r); err != nil && failed == nil {
				failed = fmt.Errorf("wal probe append: %w", err)
			}
		}
	}
	var cold []float64
	const coldBatch = 1024
	for done := 0; done < tailCap; done += coldBatch {
		d := p.time(probeWALAppend, func() { appendN(la, coldBatch) })
		cold = append(cold, float64(d.Nanoseconds())/coldBatch/1e3)
	}
	p.out["wal.append_cold_us"] = median(cold)
	var hot sample
	for i := 0; i < 200; i++ {
		d := p.time(probeWALAppend, func() { appendN(la, 1) })
		hot.add(float64(d.Nanoseconds()) / 1e3)
	}
	p.out["wal.append_us"], _ = hot.pct(0.5)
	if err := la.Close(); err != nil {
		return err
	}

	// Sync: 1000 group commits of 4 records, below the tail cap.
	dirB := filepath.Join(root, "sync")
	lb, err := wal.Open(wal.Config{Dir: dirB}, 0)
	if err != nil {
		return err
	}
	for i := 0; i < 1000; i++ {
		appendN(lb, 4)
		var serr error
		p.time(probeWALSync, func() { serr = lb.Sync() })
		if serr != nil {
			return fmt.Errorf("wal probe sync: %w", serr)
		}
	}

	// Checkpoint a region of the workload's size.
	db, _, _, err := seededDB(w.callRecords, conns*w.slots)
	if err != nil {
		return err
	}
	var ck []float64
	for i := 0; i < 5; i++ {
		appendN(lb, 4)
		var cerr error
		d := p.time(probeWALCheckpoint, func() { cerr = lb.Checkpoint(db.SnapshotInto) })
		if cerr != nil {
			return fmt.Errorf("wal probe checkpoint: %w", cerr)
		}
		ck = append(ck, float64(d.Nanoseconds())/1e6)
	}
	p.out["wal.checkpoint_ms"] = median(ck)
	appendN(lb, 512) // a tail to replay past the checkpoint
	if err := lb.Close(); err != nil {
		return err
	}
	var rc []float64
	for i := 0; i < 3; i++ {
		var rerr error
		d := p.time(probeWALRecover, func() { _, rerr = wal.Recover(dirB, schemaFor(w.callRecords)) })
		if rerr != nil {
			return fmt.Errorf("wal probe recover: %w", rerr)
		}
		rc = append(rc, d.Seconds())
	}
	p.out["wal.recover_s"] = median(rc)
	return failed
}

// procProbe times each builtin procedure through the engine, counts the
// VM steps of the workload's res_touch call, and compares the PECOS-
// instrumented program with the bare one on the same fake syscalls.
func (p *prober) procProbe(w *workload, _ int64, _ string) error {
	_, cl, recs, err := seededDB(w.callRecords, 16)
	if err != nil {
		return err
	}
	reg := proc.NewRegistry()
	eng := proc.NewEngine()
	args := map[string][]uint32{
		"res_touch":  {uint32(recs[3]), 77},
		"res_scan":   {uint32(recs[0]), 16},
		"call_setup": {1, 12345},
	}
	for _, b := range proc.Library() {
		pr, err := reg.Load(b.Name, b.Source)
		if err != nil {
			return err
		}
		var t sample
		for i := 0; i < 2000; i++ {
			var res proc.Result
			d := p.time(probeProc, func() { res = eng.Exec(pr, cl, args[b.Name], 0) })
			if res.Status != proc.StatusOK {
				return fmt.Errorf("proc probe %s: %v %s", b.Name, res.Status, res.Reason)
			}
			if b.Name == "res_touch" {
				p.out["proc.vm_steps_per_exec"] = float64(res.Steps)
			}
			t.add(float64(d.Nanoseconds()) / 1e3)
		}
		p.out["proc.exec_p50_us."+b.Name], _ = t.pct(0.5)
	}

	bare, err := isa.Assemble(proc.SrcResTouch)
	if err != nil {
		return err
	}
	prog, err := isa.AssembleWithInfo(proc.SrcResTouch)
	if err != nil {
		return err
	}
	ins, err := pecos.Instrument(prog, pecos.DefaultOptions())
	if err != nil {
		return err
	}
	runVM := func(text []uint32, instrumented bool) (time.Duration, error) {
		fields := map[uint32]uint32{}
		bridge := func(t *vm.Thread, num uint32) vm.Trap {
			switch num {
			case 2: // argument
				t.Regs[0] = []uint32{5, 77}[t.Regs[1]&1]
			case 3: // read field
				t.Regs[0], t.Regs[15] = fields[t.Regs[3]], 1
			case 4: // write field
				fields[t.Regs[3]], t.Regs[15] = t.Regs[4], 1
			case 8: // emit
			}
			return vm.TrapNone
		}
		m, err := vm.New(text, 1, vm.DefaultConfig(), bridge)
		if err != nil {
			return 0, err
		}
		if instrumented {
			m.OnTrap = pecos.NewRuntime(ins).OnTrap
		}
		var d time.Duration
		d = p.time(probeVM, func() { m.Run(proc.DefaultStepBudget) })
		if m.Crashed() {
			return 0, fmt.Errorf("proc probe: res_touch crashed the VM")
		}
		return d, nil
	}
	var tb, ti []float64
	for i := 0; i < 2000; i++ {
		d, err := runVM(bare, false)
		if err != nil {
			return err
		}
		tb = append(tb, float64(d))
		if d, err = runVM(ins.Text, true); err != nil {
			return err
		}
		ti = append(ti, float64(d))
	}
	p.out["proc.instrumented_over_bare"] = median(ti) / median(tb)
	return nil
}
