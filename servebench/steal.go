package main

import (
	"bytes"
	"fmt"
	"os"
	"sort"
	"strconv"
	"time"
)

// stealSlice is the length of the slices a phase is cut into to watch the
// host's CPU steal: the time the hypervisor gave this virtual machine's
// CPUs to someone else.
//
// On a small virtual machine the host steals a few tens of milliseconds
// every few seconds. That is under 1% of the time, but in an open loop
// every request due during a steal waits it out, so a few steals move a
// sub-millisecond p99 severalfold, and how often the host steals differs
// from run to run. Latencies and closed-loop throughput are therefore
// taken over the slices in which the host stole least (see quietest).
// The program's own stalls — sweeps, garbage collection, checkpoints —
// still count wherever they fall outside a stolen slice.
const stealSlice = 250 * time.Millisecond

// hostSteal reads the steal field of /proc/stat's aggregate cpu line, in
// clock ticks summed over all CPUs.
func hostSteal() (int64, error) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, err
	}
	return parseSteal(data)
}

func parseSteal(data []byte) (int64, error) {
	line, _, _ := bytes.Cut(data, []byte("\n"))
	f := bytes.Fields(line)
	// cpu user nice system idle iowait irq softirq steal ...
	if len(f) < 9 || string(f[0]) != "cpu" {
		return 0, fmt.Errorf("/proc/stat: unexpected first line %q", line)
	}
	return strconv.ParseInt(string(f[8]), 10, 64)
}

// stealWatch records the host's steal in each slice of a phase.
type stealWatch struct {
	ticks []int64
	err   error
	done  chan struct{}
}

// watchSteal samples the steal counter at start and at the end of each of
// n slices after it.
func watchSteal(start time.Time, n int) *stealWatch {
	s := &stealWatch{ticks: make([]int64, n), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		time.Sleep(time.Until(start))
		prev, err := hostSteal()
		for i := 0; i < n && err == nil; i++ {
			time.Sleep(time.Until(start.Add(time.Duration(i+1) * stealSlice)))
			var v int64
			if v, err = hostSteal(); err == nil {
				s.ticks[i], prev = v-prev, v
			}
		}
		s.err = err
	}()
	return s
}

// wait returns the per-slice steal once the last slice has ended.
func (s *stealWatch) wait() ([]int64, error) {
	<-s.done
	return s.ticks, s.err
}

// sliceRef is one steal slice of one sub-run's phase.
type sliceRef struct {
	sub, slice int
	steal      int64 // booked in the slice and in both its neighbours
}

// quietest orders the slices of several phases (one per sub-run) from the
// least steal to the most, and returns how many of them count at least:
// every slice with no steal booked in it or in either neighbour — the
// kernel books a steal when the CPU gets back, so it may have begun in the
// slice before, and its backlog drains into the slice after — and no fewer
// than half of all slices, so that a run in a burst of steal still reports
// its quieter half.
func quietest(phases [][]int64) (order []sliceRef, least int) {
	free := 0
	for sub, ticks := range phases {
		for i := range ticks {
			var st int64
			for j := max(i-1, 0); j <= min(i+1, len(ticks)-1); j++ {
				st += ticks[j]
			}
			if st == 0 {
				free++
			}
			order = append(order, sliceRef{sub: sub, slice: i, steal: st})
		}
	}
	sort.SliceStable(order, func(a, b int) bool { return order[a].steal < order[b].steal })
	return order, max(free, (len(order)+1)/2)
}

// slicesFor is how many steal slices cover a phase of length d.
func slicesFor(d time.Duration) int {
	return int((d + stealSlice - 1) / stealSlice)
}
