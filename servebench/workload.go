package main

import (
	"math"
	"math/rand"
	"sort"
	"time"

	"repro/internal/callproc"
)

// opKind is one generated operation. Every kind targets the Resource table
// through a slot the connection owns, except churn, which allocates a
// temporary record and frees it again.
type opKind uint8

const (
	kReadFld  opKind = iota // READ_FLD, checked against the golden copy
	kReadRec                // READ_REC, checked against the golden copy
	kStatus                 // STATUS, must answer active
	kWriteFld               // WRITE_FLD of Status or Quality
	kWriteRec               // WRITE_REC of a fresh record image
	kMove                   // MOVE to another resource bank
	kChurn                  // ALLOC a temporary record, then FREE it
	kProc                   // PROC_EXEC res_touch(rec, quality)
	numKinds
)

var kindNames = [numKinds]string{
	"read_fld", "read_rec", "status", "write_fld", "write_rec", "move", "churn", "proc",
}

// Latency classes the end-to-end metrics report.
const (
	classRead = iota
	classWrite
	classProc
	numClasses
)

var classNames = [numClasses]string{"read", "write", "proc"}

func classOf(k opKind) int {
	switch k {
	case kReadFld, kReadRec, kStatus:
		return classRead
	case kProc:
		return classProc
	}
	return classWrite
}

// workload fixes everything a run depends on apart from the seed.
type workload struct {
	name string
	// Server shape.
	shards      int
	callRecords int
	wal         bool
	auditPeriod time.Duration
	// Client shape.
	slots int     // Resource records each connection owns
	zipf  float64 // slot-popularity exponent; 0 = uniform
	mix   [numKinds]float64
	rate  float64 // open-loop offered ops/s across both connections
}

// conns is the number of client connections every workload drives.
const conns = 2

// closedWindow is the closed loop's in-flight requests per connection; both
// connections together stay below the server's default queue depth (256),
// so nothing is shed.
const closedWindow = 64

// injectPeriod is the static-mode data injector's period on each shard for
// the whole measured window. It is not a divisor of the audit periods:
// with 16 ms, one shot in 25 lands on the same simulated instant as a
// sweep, and whether that sweep sees it flips detect_p99_ms between 80 and
// 100 ms from run to run.
const injectPeriod = 16700 * time.Microsecond

// walCheckpointBytes is -wal-checkpoint for WAL-backed workloads. The
// default 4 MiB takes about 75,000 logged writes — minutes past the tail
// cap — so the warm-up could not reach a checkpoint.
const walCheckpointBytes = 256 << 10

// walWarmSeq is the WAL sequence a WAL-backed warm-up must pass, beyond
// the log's 8192-record replication tail, so every measured append pays
// for a full tail.
const walWarmSeq = 9000

// lateBound is the largest loadgen.late_p99_us a valid run may show, over
// every open-loop send of the run. A generator that falls behind its
// schedule grows later without bound; on the 2-vCPU virtual machine the
// benchmark was built on, the p99 was about 0.1 ms when the host was quiet
// and 24 ms at worst, inside a burst of CPU steal.
const lateBound = 50000.0

var workloads = []*workload{
	{
		name:        "read-mostly",
		shards:      1,
		callRecords: 128,
		auditPeriod: 100 * time.Millisecond,
		slots:       48,
		zipf:        1.1,
		mix: [numKinds]float64{
			kReadFld: 40, kReadRec: 30, kStatus: 14,
			kWriteFld: 8, kWriteRec: 4, kMove: 2,
			kProc: 2,
		},
		rate: 10000,
	},
	{
		name:        "durable-writes",
		shards:      1,
		callRecords: 256,
		wal:         true,
		auditPeriod: 100 * time.Millisecond,
		slots:       64,
		zipf:        0.8,
		mix: [numKinds]float64{
			kReadFld: 9, kReadRec: 9,
			kWriteFld: 24, kWriteRec: 18, kMove: 12, kChurn: 10,
			kProc: 18,
		},
		rate: 300,
	},
	{
		name:        "audit-storm",
		shards:      2,
		callRecords: 32768,
		auditPeriod: 250 * time.Millisecond,
		slots:       8192,
		zipf:        0.5,
		mix: [numKinds]float64{
			kReadFld: 25, kReadRec: 25, kStatus: 10,
			kWriteFld: 20, kWriteRec: 10, kMove: 5, kChurn: 3,
			kProc: 2,
		},
		rate: 4000,
	},
}

func lookupWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// maxProcID is the largest value the range audit accepts in a Resource
// record's ProcID field.
func (w *workload) maxProcID() uint32 { return uint32(w.callRecords - 1) }

// op is one fully drawn operation. Record indices are not known until the
// server answers the seeding ALLOCs, so ops name the connection's slot.
type op struct {
	kind  opKind
	slot  int32
	field uint8
	bank  uint8     // MOVE and churn: target bank offset 1..banks-1
	vals  [3]uint32 // WRITE_REC image; vals[0] is the value for WRITE_FLD/PROC
}

// stream draws a connection's op sequence from the seed. The draw order is
// fixed, so the same (seed, connection) always yields the same ops.
type stream struct {
	w   *workload
	rng *rand.Rand
	mix []float64 // cumulative kind weights
	cdf []float64 // cumulative slot popularity
}

func newStream(w *workload, seed int64, conn int) *stream {
	s := &stream{w: w, rng: rand.New(rand.NewSource(seed*7919 + int64(conn)*104729 + 1))}
	acc := 0.0
	for _, m := range w.mix {
		acc += m
		s.mix = append(s.mix, acc)
	}
	acc = 0
	s.cdf = make([]float64, w.slots)
	for i := range s.cdf {
		acc += 1 / math.Pow(float64(i+1), w.zipf)
		s.cdf[i] = acc
	}
	return s
}

func pick(cum []float64, u float64) int {
	i := sort.SearchFloat64s(cum, u*cum[len(cum)-1])
	if i >= len(cum) {
		i = len(cum) - 1
	}
	return i
}

func (s *stream) next() op {
	o := op{
		kind: opKind(pick(s.mix, s.rng.Float64())),
		slot: int32(pick(s.cdf, s.rng.Float64())),
	}
	switch o.kind {
	case kReadFld:
		o.field = uint8(s.rng.Intn(3))
	case kWriteFld:
		// Status (0..2) or Quality (0..100): both stay inside the ranges
		// the dynamic-range audit enforces, so a clean run ends sweep-clean.
		if s.rng.Intn(4) == 0 {
			o.field = callproc.FldResStatus
			o.vals[0] = uint32(s.rng.Intn(3))
		} else {
			o.field = callproc.FldResQuality
			o.vals[0] = uint32(s.rng.Intn(101))
		}
	case kWriteRec:
		o.vals = [3]uint32{
			uint32(s.rng.Int63n(int64(s.w.maxProcID()) + 1)),
			uint32(s.rng.Intn(3)),
			uint32(s.rng.Intn(101)),
		}
	case kMove, kChurn:
		o.bank = uint8(1 + s.rng.Intn(callproc.ResourceBanks-1))
	case kProc:
		// Up to 120 so res_touch's clamp to 100 is exercised.
		o.vals[0] = uint32(s.rng.Intn(121))
	}
	return o
}

// schedule draws a connection's open-loop arrival times: a Poisson process
// at the connection's share of the workload rate, seeded separately from
// the op stream so changing the rate leaves the ops unchanged.
type schedule struct {
	rng  *rand.Rand
	mean float64 // ns between arrivals
	at   float64 // ns since the phase start
}

func newSchedule(seed int64, conn int, ratePerConn float64) *schedule {
	return &schedule{
		rng:  rand.New(rand.NewSource(seed*15485863 + int64(conn)*32452843 + 7)),
		mean: 1e9 / ratePerConn,
	}
}

func (s *schedule) next() time.Duration {
	s.at += s.rng.ExpFloat64() * s.mean
	return time.Duration(s.at)
}
