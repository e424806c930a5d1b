// Package dist implements the paper's stated future work: "porting these
// algorithms to a hypercube architecture" — the asynchronous algorithm
// restructured for distributed memory.
//
// Unlike package core, nothing is shared: every worker owns a static
// partition of elements plus private replicas of the node histories its
// elements read. Owners broadcast batches of events and valid-time
// advances to subscriber workers over channels (the message-passing stand-
// in for hypercube links), and consumed history prefixes are compacted
// locally — explicit storage reclamation, since no shared garbage
// collector can see a remote replica.
//
// Termination uses the Dijkstra-Feijen-van Gasteren ring: workers colour
// themselves black when they send work, a token circulates when workers go
// passive, and worker 0 announces termination when a white token completes
// a round through passive white workers. No counters are shared.
package dist

import (
	"context"

	"parsim/internal/circuit"
	"parsim/internal/engine"
	"parsim/internal/logic"
	"parsim/internal/partition"
	"parsim/internal/stats"
)

// event is one node value change.
type event struct {
	t circuit.Time
	v logic.Value
}

// msg carries one owned node's fresh behaviour to a subscriber.
type msg struct {
	node    circuit.NodeID
	events  []event
	validTo circuit.Time
}

// token is Safra's termination-detection token: the colour records whether
// any visited worker did work since last whitened; q accumulates each
// worker's sent-minus-received message count, so in-flight mail is visible.
type token struct {
	black bool
	q     int64
}

// replica is a worker-local view of one node's history. For nodes the
// worker owns it is the authoritative copy; for remote nodes it is fed by
// messages. Plain fields only — each replica lives inside one goroutine.
type replica struct {
	events  []event
	base    int64 // history index of events[0] (grows as the prefix is reclaimed)
	validTo circuit.Time
	last    logic.Value // last value (dedup for owners, tail value for all)
	final   logic.Value // last value applied before the horizon (owners)
}

const reclaimThreshold = 256

// eng registers the distributed-memory asynchronous simulator with the
// engine layer.
type eng struct{}

func (eng) Name() string { return "distributed-async" }

func init() { engine.Register(eng{}, "dist", "distributed") }

// Run simulates the circuit on cfg.Workers message-passing workers. The
// guard contains worker panics, evaluations heartbeat the watchdog, and a
// run that terminates with owned-node valid-times short of the horizon
// self-reports the stall instead of silently returning stale X values. When
// the run is cancelled every worker stops at its next queue poll or
// blocking wait and the partial Report is returned. In-flight messages are
// abandoned; termination detection is bypassed.
func (e eng) Run(ctx context.Context, c *circuit.Circuit, cfg engine.Config) (*engine.Report, error) {
	p := cfg.Workers
	parts := partition.Split(c, p, cfg.Strategy)

	// elemOwner[i] = worker owning element i; nodeOwner likewise via driver.
	elemOwner := make([]int, len(c.Elems))
	for w, part := range parts {
		for _, id := range part {
			elemOwner[id] = w
		}
	}
	for _, g := range c.Generators() {
		elemOwner[g] = int(g) % p
	}

	workers := make([]*worker, p)
	done := make(chan struct{})
	for w := 0; w < p; w++ {
		workers[w] = newWorker(c, cfg, w, p, parts[w], elemOwner)
		workers[w].done = done
		workers[w].ctxDone = ctx.Done()
	}
	// Wire channels and subscriber lists.
	for w := 0; w < p; w++ {
		workers[w].peers = workers
	}
	for i := range c.Nodes {
		owner := elemOwner[c.Nodes[i].Driver]
		subs := map[int]bool{}
		for _, pr := range c.Nodes[i].Fanout {
			if o := elemOwner[pr.Elem]; o != owner {
				subs[o] = true
			}
		}
		for s := range subs {
			nid := circuit.NodeID(i)
			workers[owner].subscribers[nid] = append(workers[owner].subscribers[nid], s)
		}
	}

	// Seed generators: the owner materialises each generator's behaviour
	// for all time before workers start.
	for _, g := range c.Generators() {
		w := workers[elemOwner[g]]
		el := &c.Elems[g]
		n := el.Out[0]
		w.replicaFor(n)
		el.GenWaveform(cfg.Horizon, cfg.Guard().Cancelled, func(t circuit.Time, v logic.Value) {
			w.append(n, t, v)
		})
		w.advanceValidTo(n, cfg.Horizon)
	}
	// Flush the seeded behaviour as pre-start mail and activations.
	for _, w := range workers {
		w.preStartFlush()
	}

	wall := engine.Gang(cfg, "distributed eval loop", func(w int) { workers[w].run() })

	rep := &engine.Report{Final: make([]logic.Value, len(c.Nodes)), Stats: stats.Run{
		Algorithm: e.Name(),
		Circuit:   c.Name,
		Horizon:   cfg.Horizon,
		Workers:   p,
	}}
	for i := range c.Nodes {
		owner := workers[elemOwner[c.Nodes[i].Driver]]
		if r, ok := owner.replicas[circuit.NodeID(i)]; ok {
			rep.Final[i] = r.final
		} else {
			rep.Final[i] = logic.AllX(c.Nodes[i].Width)
		}
	}
	per := make([]stats.WorkerCounters, p)
	for w := 0; w < p; w++ {
		per[w] = workers[w].wc
	}
	rep.Stats.Aggregate(wall, per)
	for _, w := range workers {
		if w.cut {
			// Stopped on the context, which no Cancelled poll may have seen.
			return rep, ctx.Err()
		}
	}
	// Termination was declared (every worker passive, no mail in flight),
	// so authoritative valid-times short of the horizon mean the run
	// stalled rather than completed. The owner replicas are plain fields,
	// safe to read once the gang has exited. Workers also watch ctx.Done
	// directly, so the check consults the context itself: a cut-short run
	// is never mistaken for a stall.
	return rep, engine.StallReport(ctx, e.Name(), c, cfg.Horizon, func(n circuit.NodeID) (int64, bool) {
		r, ok := workers[elemOwner[c.Nodes[n].Driver]].replicas[n]
		if !ok {
			return 0, false
		}
		return int64(r.validTo), true
	})
}
