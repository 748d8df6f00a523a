package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"
)

// layerMetrics derives the per-layer metrics of a traced run: the driver's
// own spans, the server's window-only counters over the open-loop window,
// and the in-process probes. walWin is the open-loop window of a server
// with a WAL: the run's own, or its durable-writes sub-run's. The servers
// must have stopped already.
func layerMetrics(o options, open, closed, walWin window, res []*phaseResult, work string, base time.Time) (map[string]float64, error) {
	w := o.w
	out := map[string]float64{}
	put := func(name string, v float64) { out[name] = v }
	// q reports a window quantile even when too few observations lie
	// beyond it; per-layer numbers explain, they do not gate.
	q := func(h *promHist, p float64) float64 {
		v, _ := h.quantile(p)
		return v
	}
	pctAny := func(s *sample, p float64) float64 {
		v, _ := s.pct(p)
		return v
	}

	// Wire: the driver's spans around the codec and socket calls.
	var st spanStats
	var frames, flushes int64
	var traced, untraced sample
	for _, r := range res {
		st.addConn(&r.sendSpans, &r.recvSpans)
		frames += r.sent
		flushes += r.flushes
		traced.vals = append(traced.vals, r.tracedLat.vals...)
		untraced.vals = append(untraced.vals, r.untracedLat.vals...)
	}
	sendUs := pctAny(&st.dur[spanSend], 0.5)
	flushUs := pctAny(&st.dur[spanFlush], 0.5)
	framesPerFlush := float64(frames) / float64(max(flushes, 1))
	put("wire.send_us", sendUs)
	put("wire.flush_us", flushUs)
	put("wire.recv_wait_us", pctAny(&st.dur[spanRecv], 0.5))
	put("wire.frames_per_flush", framesPerFlush)
	put("client.request_self_us", pctAny(&st.selfTime, 0.5))
	tp, up := pctAny(&traced, 0.5), pctAny(&untraced, 0.5)
	put("tracing.overhead_frac", (tp-up)/up)

	// Server stages, window-only bucket deltas (ns → µs).
	qw := open.histDelta("server_stage_queue_wait")
	ex := open.histDelta("server_stage_execute")
	rw := open.histDelta("server_stage_reply_write")
	put("server.queue_wait_p50_us", q(qw, 0.5)/1e3)
	put("server.queue_wait_p99_us", q(qw, 0.99)/1e3)
	put("server.execute_p50_us", q(ex, 0.5)/1e3)
	put("server.execute_p99_us", q(ex, 0.99)/1e3)
	put("server.reply_write_p50_us", q(rw, 0.5)/1e3)
	put("server.batch_mean", open.histDelta("server_batch_size").mean())
	put("server.shed", open.delta("server_queue_dropped")+closed.delta("server_queue_dropped"))
	stageUs := (q(qw, 0.5) + q(ex, 0.5) + q(rw, 0.5)) / 1e3
	put("attribution.closure_p50", (sendUs+flushUs/framesPerFlush+stageUs)/tp)

	// Fast lane.
	var readsSent int
	for _, r := range res {
		for _, s := range r.lat[classRead] {
			readsSent += s.n()
		}
	}
	fr := open.delta("fastlane_reads")
	put("fastlane.read_share", fr/float64(max(readsSent, 1)))
	put("fastlane.retry_ratio", open.delta("fastlane_retries")/max(fr, 1))
	put("fastlane.fallback_ratio", open.delta("fastlane_fallbacks")/max(fr, 1))

	// Audit, from the server's per-check histograms.
	busy := 0.0
	for _, c := range []struct{ metric, hist string }{
		{"audit.static_ms", "audit_check_static_data"},
		{"audit.structural_ms", "audit_check_structural"},
		{"audit.dynamic_range_ms", "audit_check_dynamic_range"},
	} {
		h := open.histDelta(c.hist)
		put(c.metric, h.mean()/1e6)
		busy += h.sum
	}
	put("audit.sweeps", open.delta("audit_sweeps"))
	put("audit.busy_frac", busy/(open.secs()*1e9*float64(w.shards)))

	// Shard balance: the busiest executor's share over the mean.
	if w.shards > 1 {
		var mx, sum float64
		for k := 0; k < w.shards; k++ {
			v := open.delta(fmt.Sprintf("shard_%d_server_executed", k))
			mx, sum = max(mx, v), sum+v
		}
		put("shard.exec_imbalance", mx/max(sum/float64(w.shards), 1))
	} else {
		put("shard.exec_imbalance", 1)
	}

	// Flight recorder and health plane.
	var drops float64
	for name := range open.b.scalar {
		if strings.HasPrefix(name, "trace_") && strings.HasSuffix(name, "_drops") {
			drops += open.delta(name)
		}
	}
	put("trace.drop_frac", drops/max(open.delta("trace_events"), 1))
	put("health.detect_p99_ms", closed.b.scalar["health_detect_p99_ms"])

	// Probes.
	probes, spans, err := runProbes(w, o.seed, work, base)
	if err != nil {
		return nil, err
	}
	for name, v := range probes {
		put(name, v)
	}
	fs := walWin.histDelta("wal_fsync")
	put("wal.fsync_p50_us", q(fs, 0.5)/1e3)
	put("wal.fsync_p99_us", q(fs, 0.99)/1e3)
	put("wal.ops_per_fsync", walWin.delta("wal_appended")/max(fs.count, 1))

	dir := filepath.Join(o.dir, "spans")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	logs := make([][]*spanLog, len(res))
	for i, r := range res {
		logs[i] = []*spanLog{&r.sendSpans, &r.recvSpans}
	}
	if err := writeSpans(filepath.Join(dir, fmt.Sprintf("%s-seed%d.csv", w.name, o.seed)), logs, spans); err != nil {
		return nil, err
	}
	return out, nil
}
