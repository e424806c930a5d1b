package main

import (
	"math"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"

	"parsim"
)

// outcome is one finished job.
type outcome struct {
	kind       int
	start, end time.Time
	res        *parsim.Result
	err        error
	failure    string // why the job counts as failed; "" when it passed

	// Daemon jobs only.
	postEnd   time.Time // when the POST /v1/jobs round trip returned
	polls     int
	queuedMS  int64 // server-reported queue wait
	runMS     int64 // server-reported run wall
	rawResult []byte
}

func (o *outcome) latency() time.Duration { return o.end.Sub(o.start) }

// round is one pass over every kind of the workload (per client) in a
// seed-shuffled order, so that a slow phase of the shared host hits all
// kinds alike.
type round struct {
	jobs  []outcome
	wall  time.Duration // first job issued to last job finished
	cpu   time.Duration // process user+system CPU over the same window
	alloc uint64        // bytes allocated over the same window
	calib time.Duration // the slower of the host calibrations around it
}

func (r *round) failed() int {
	n := 0
	for i := range r.jobs {
		if r.jobs[i].failure != "" {
			n++
		}
	}
	return n
}

func (r *round) firstFailure() string {
	for i := range r.jobs {
		if r.jobs[i].failure != "" {
			return r.jobs[i].failure
		}
	}
	return ""
}

// runRound issues every kind once per client, times the round, and then,
// outside the timed window, checks every result and collects garbage. A
// non-nil tracer records spans for every job as it runs.
func (s *session) runRound(tr *tracer) (round, error) {
	if s.daemon != nil {
		if s.daemonRounds == daemonLifetime {
			if err := s.recycleDaemon(); err != nil {
				return round{}, err
			}
		}
		s.daemonRounds++
	}
	clients := max(s.w.clients, 1)
	orders := make([][]int, clients)
	for c := range orders {
		orders[c] = s.rng.Perm(len(s.w.kinds))
	}
	var bodies [][][]byte
	if s.daemon != nil {
		bodies = s.submissions(orders)
	}

	var r round
	before := calibrate()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cpu0 := cpuTime()
	t0 := time.Now()
	if s.daemon == nil {
		for _, ki := range orders[0] {
			r.jobs = append(r.jobs, s.simulate(ki, tr))
		}
	} else {
		perClient := make([][]outcome, clients)
		var wg sync.WaitGroup
		for c := range orders {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				for i, ki := range orders[c] {
					o := s.daemon.runJob(bodies[c][i], tr, s.w.kinds[ki].String())
					o.kind = ki
					perClient[c] = append(perClient[c], o)
				}
			}(c)
		}
		wg.Wait()
		for _, jobs := range perClient {
			r.jobs = append(r.jobs, jobs...)
		}
	}
	r.wall = time.Since(t0)
	r.cpu = cpuTime() - cpu0
	runtime.ReadMemStats(&m1)
	r.alloc = m1.TotalAlloc - m0.TotalAlloc
	r.calib = max(before, calibrate())

	for i := range r.jobs {
		o := &r.jobs[i]
		if o.err == nil && o.rawResult != nil {
			o.res = new(parsim.Result)
			o.err = o.res.UnmarshalJSON(o.rawResult)
			o.rawResult = nil
		}
		o.failure = s.verify(o.kind, o.res, o.err)
		// Only the statistics are read after this point; dropping the node
		// values (256 lanes of them on the wide kinds) lets the collection
		// below free them.
		if o.res != nil {
			o.res.Final, o.res.LaneFinal = nil, nil
		}
	}
	runtime.GC()
	return r, nil
}

var calibSink uint64

// calibrate times a fixed integer spin of about 5 ms. The spin never
// touches the code under test, so a slow calibration means the host, not
// the program, was slow around this round.
func calibrate() time.Duration {
	t0 := time.Now()
	x := uint64(88172645463325252)
	for i := 0; i < 2_000_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	calibSink += x
	return time.Since(t0)
}

// cpuTime is the process's cumulative user+system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's peak resident set; Linux reports it in KiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// calibTolerance is how much slower than the run's fastest calibration a
// round's may be before the round is set aside.
const calibTolerance = 1.15

// quietRounds drops the rounds whose host calibration exceeded
// calibTolerance times the run's minimum, but never more than half of
// them. The rule looks only at the calibration spin, never at the jobs.
func quietRounds(rounds []round) []round {
	if len(rounds) == 0 {
		return nil
	}
	sorted := append([]round(nil), rounds...)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].calib < sorted[j].calib })
	limit := time.Duration(float64(sorted[0].calib) * calibTolerance)
	keep := (len(sorted) + 1) / 2
	for keep < len(sorted) && sorted[keep].calib <= limit {
		keep++
	}
	return sorted[:keep]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sum(xs) / float64(len(xs))
}

// quantile interpolates linearly between the order statistics of xs.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// latenciesByKind pools, per kind, the job latencies of the given rounds.
func latenciesByKind(nkinds int, rounds []round) [][]float64 {
	by := make([][]float64, nkinds)
	for i := range rounds {
		for j := range rounds[i].jobs {
			o := &rounds[i].jobs[j]
			by[o.kind] = append(by[o.kind], ms(o.latency()))
		}
	}
	return by
}

// jobP50GM is the geometric mean over the kinds of each kind's median
// latency. The geometric mean weights every kind equally and keeps the
// figure off the mode boundaries a pooled median of a mixed workload has.
func jobP50GM(nkinds int, rounds []round) float64 {
	var medians []float64
	for _, lat := range latenciesByKind(nkinds, rounds) {
		if len(lat) > 0 {
			medians = append(medians, median(lat))
		}
	}
	return geomean(medians)
}
