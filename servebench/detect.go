package main

import (
	"sort"

	"repro/internal/trace"
)

// detection is the shot→finding join over a journal: every region shot
// ("dbflip") must reappear as an audit finding carrying the shot's trace
// ID. The latency is the gap between the two recorder timestamps.
type detection struct {
	shots, joined, unjoined int
	latMs                   sample
}

func joinShots(j journal) detection {
	evs := make([]trace.Event, 0, len(j))
	for _, ev := range j {
		evs = append(evs, ev)
	}
	sort.Slice(evs, func(a, b int) bool { return evs[a].Seq < evs[b].Seq })
	first := map[uint64]trace.Event{}
	var shots []trace.Event
	for _, ev := range evs {
		switch ev.Kind {
		case trace.KindShot:
			if ev.Op == "dbflip" {
				shots = append(shots, ev)
			}
		case trace.KindFinding:
			if _, seen := first[ev.Trace]; ev.Trace != 0 && !seen {
				first[ev.Trace] = ev
			}
		}
	}
	var d detection
	d.shots = len(shots)
	for _, sh := range shots {
		f, ok := first[sh.Trace]
		if !ok || f.At < sh.At {
			d.unjoined++
			continue
		}
		d.joined++
		d.latMs.add(float64(f.At-sh.At) / 1e6)
	}
	return d
}
