GO ?= go

.PHONY: build test race vet lint chaos serve-test auto-test ckpt-test \
	fleet-test jit-test async-test check figures bench-diff bench-vector \
	bench-fault bench-ckpt bench-smoke wide-test fuzz fuzz-smoke clean

build:
	$(GO) build ./...

test:
	$(GO) test ./...

## race runs every package's tests once under the race detector: the
## differential suites against the sequential oracle, the chaos, service,
## selection, durability, fleet, plane-core and event-list suites the
## per-area targets below pick out, and the checked-in fuzz corpora. go
## test's 10m default is too short for internal/parevent's differential
## corpus when every package shares a 2-core host; 15m is its budget.
race:
	$(GO) test -race -count=1 -timeout 15m ./...

vet:
	$(GO) vet ./...

## lint fails when gofmt would reformat any file, then runs the repo's
## custom vet pass (tools/lint): syntactic checks for sync/atomic misuse
## around the per-worker counter surface.
lint:
	@unformatted=$$(gofmt -l .); if [ -n "$$unformatted" ]; then \
		echo "gofmt -l lists unformatted files:"; echo "$$unformatted"; exit 1; fi
	$(GO) run ./tools/lint ./...

## The per-area targets below are developer shortcuts: each reruns, under
## the race detector, a slice of what `race` already covers, so `check`
## does not call them.

## chaos runs the supervision-layer fault-injection suite under the race
## detector: induced worker panics, dropped wakeups and genuine stalls on
## every engine (guard_test.go), plus the guard package's own unit tests.
chaos:
	$(GO) test -race -timeout 5m -count=1 -run 'TestGuard' .
	$(GO) test -race -timeout 5m -count=1 ./internal/guard

## serve-test runs the simulation-service end-to-end suite (submit, poll,
## admission control, scheduler budget, drain, the parse-free dedup path)
## under the race detector, with the netlist parser's suite — exact error
## texts, the allocation budget, the FuzzNetlist seeds — beside it, since
## the parser is the front of every submission.
serve-test:
	$(GO) test -race -timeout 5m -count=1 ./internal/server ./internal/netlist

## auto-test runs the engine-selection suite under the race detector: the
## static profiler's golden fingerprints, the cost-model predictions, the
## auto engine's end-to-end selection path, and cmd/parsim, whose profile
## subcommand must print the selection auto makes.
auto-test:
	$(GO) test -race -timeout 5m -count=1 ./internal/analyze ./internal/machine ./internal/auto ./cmd/parsim

## ckpt-test runs the crash-durability suite under the race detector: the
## snapshot codec (round-trip, corruption, the FuzzCheckpoint corpus, Load
## refusing devices, directories and FIFOs), the async coalescing writer,
## bit-identical resume on every engine, the typed refusal of malformed
## snapshots, the parsimd job journal + restart recovery, and the
## end-to-end kill -9 daemon test.
ckpt-test:
	$(GO) test -race -timeout 5m -count=1 -run 'TestResume' .
	$(GO) test -race -timeout 5m -count=1 ./internal/checkpoint
	$(GO) test -race -timeout 5m -count=1 -run 'TestJournal|TestRecovery|TestDrainResume' ./internal/server
	$(GO) test -race -timeout 5m -count=1 ./cmd/parsimd

## fleet-test runs the cluster suite under the race detector: the
## consistent-hash ring and content-addressed key units (golden keys, the
## key writer's allocation budget), the coordinator's key memo and its
## multi-node end-to-end tests (including the mid-run node-kill requeue
## drill and fleet-wide backpressure), and the single-node dedup layer
## with its parse-free body-digest path.
fleet-test:
	$(GO) test -race -timeout 10m -count=1 ./internal/cluster
	$(GO) test -race -timeout 5m -count=1 -run 'TestDedup' ./internal/server

## jit-test runs the plane-core suite (internal/vector, the engine behind
## the names vector and jit) under the race detector: the per-lowering
## truth-table proofs (scalar, one-word and wide planes; white-box in
## internal/vector, and through the registry from the test-only
## internal/codegen directory), the gang-schedule tests
## under both names (workers 1-4 x lanes 1/64/256 against compiled, one
## barrier per step on every worker row, one contiguous slab stripe per
## worker), the selective trace's cone and fan-out-table tests and pinned
## work counts, the fault suite, the checked-in differential fuzz corpus
## replay, the parity digests (every lane's finals, probe histories and
## fault statuses against the evaluate-everything step's, on the benchmark
## circuits, the inverter array, mult16-func and random circuits at 1 and
## 2 workers) and the bit-identical resume tests, among them the resume of
## a checked-in snapshot that carries no pending marks.
jit-test:
	$(GO) test -race -timeout 5m -count=1 ./internal/vector ./internal/codegen
	$(GO) test -race -timeout 5m -count=1 -run 'TestResumeJIT|TestResumeVector|TestPlaneCoreParity|FuzzEngines|TestFuzzCorpusSeedsReplay' .

## async-test runs the event-list family under the race detector: the
## asynchronous core (owner routing, the rank-ordered ready set, the
## owner-private queued flag with its dropped duplicates and settle
## re-check, the wake-up threshold invariant and no element left queued at
## every quiescence, the 200-seed x 1-4
## workers x four-mode differential corpus against the sequential oracle,
## the pinned one-worker activation counts), the SPSC queue, the
## event-driven engine (its own 100-seed x 1-4 workers x three-mode corpus
## on finals and histories, Evals/NodeUpdates/TimeSteps pinned to
## sequential's on the paper circuits, two barrier crossings per step on
## every worker row, the skewed-ownership stealing run and the hand-driven
## proof that a thief's peek carries its stolen updates), its event queue
## (the lending canary, zero steady-state allocations, the FuzzQueue corpus
## against a sorted-slice model) and the supervision and cancellation cases
## of the three registry names they back. Its last two legs are the
## asyncdebug legs `check` also runs; here the internal/core one runs three
## times, since its runs that share recycled event blocks (a reused block
## is poisoned, and reading a slot no writer filled this run panics) race
## differently each pass. `check` runs it once for its time budget.
async-test:
	$(GO) test -race -timeout 15m -count=1 ./internal/core ./internal/spsc ./internal/parevent ./internal/eventq
	$(GO) test -race -timeout 5m -count=1 -run '^(TestGuard|TestSimulateContext)/(asynchronous|chandy-misra|event-driven)$$' .
	$(GO) test -race -tags asyncdebug -timeout 45m -count=3 ./internal/core
	$(GO) test -race -tags asyncdebug -timeout 5m -count=1 -run '^FuzzEngines$$' .

## bench-smoke compiles and smoke-tests the repository benchmark. bench/
## is a module of its own, so the root build/vet/test never see it and an
## engine change could otherwise break `bash bench/run.sh` unnoticed.
bench-smoke:
	cd bench && $(GO) test -short ./...

## check is the gate: every package's tests once plain and once under the
## race detector, the benchmark module's smoke test, then the asyncdebug
## legs. The asyncdebug tag checks the asynchronous core's in-flight
## invariants (valid-times only grow; no event is consumed at or past the
## valid-time its activation loaded; no cursor reads a slot at or past the
## count it loaded; only an element's owner touches its queued flag or
## evaluates it) and reruns the internal/core suite and the FuzzEngines
## corpus replay under it — the only tests `race` cannot run. The last leg
## runs TestResumeAfterCancel 20 times: a run that reached its horizon after
## its context was cancelled once came back as cancelled, in about 1 run
## in 8, so one pass cannot show that race is gone.
check: build vet lint test race bench-smoke
	$(GO) test -race -tags asyncdebug -timeout 15m -count=1 ./internal/core
	$(GO) test -race -tags asyncdebug -timeout 5m -count=1 -run '^FuzzEngines$$' .
	$(GO) test -count=20 -run 'TestResumeAfterCancel$$' .

## figures regenerates the quick machine-readable benchmark snapshot.
figures:
	$(GO) run ./cmd/figures -quick -json BENCH_baseline.json

## bench-diff regenerates the quick model-mode snapshot into a scratch file
## and compares it point-by-point against the tracked BENCH_baseline.json
## (tools/benchdiff, 15% relative tolerance). The model is deterministic,
## so any drift is a model change; re-baseline with `make figures` after an
## intentional one. Wall-clock regressions are bench/'s job
## (`bash bench/run.sh`), not this gate's.
bench-diff:
	$(GO) run ./cmd/figures -quick -json .bench-current.json
	$(GO) run ./tools/benchdiff BENCH_baseline.json .bench-current.json
	rm -f .bench-current.json

## bench-vector regenerates the batched throughput snapshot: the v1
## experiment sweeps stimulus lanes on the inverter array (the plane core
## under its vector name) and records per-vector speed-up over the scalar
## compiled engine.
bench-vector:
	$(GO) run ./cmd/figures -fig v1 -mode real -json BENCH_vector.json

## bench-fault regenerates the concurrent stuck-at fault-simulation
## snapshot (f1): coverage, collapse rate and pass counts on the paper
## circuits; the series are deterministic.
bench-fault:
	$(GO) run ./cmd/figures -fig f1 -mode real -json BENCH_fault.json

## bench-ckpt regenerates the checkpointing-overhead snapshot (c1): the
## compiled engine on the four paper circuits, plain vs checkpointing at
## the default capture interval and write gap, measured in process CPU
## time; acceptance is <=1.05x on every circuit.
bench-ckpt:
	$(GO) run ./cmd/figures -fig c1 -mode real -json BENCH_ckpt.json

## wide-test runs the wide-plane and fault-simulation suites under the
## race detector: the multi-word plane kernels, the packed lane values
## (logic.LaneValues) and the lane_final codec's round trip over them,
## fault-list collapsing, the stuck-at grading passes and the daemon's
## lane-width admission. internal/codegen holds tests only (the jit
## name's truth tables through the registry); the engine is
## internal/vector.
wide-test:
	$(GO) test -race -timeout 5m -count=1 -run Wide ./internal/vector ./internal/codegen ./internal/analyze ./internal/logic ./internal/engine ./internal/server .

## fuzz explores new inputs for the cross-engine differential harness.
## The checked-in corpus under testdata/fuzz/FuzzEngines already replays
## on every plain `go test` run (so `check` covers it, with -race).
fuzz:
	$(GO) test -fuzz=FuzzEngines -fuzztime=5m -run '^$$' .

## fuzz-smoke is the CI-sized fuzz budget: the cross-engine differential
## harness, then the netlist parser (never panics, limit errors stay typed,
## parse -> Write -> parse is the identity), then the event queue against
## its sorted-slice model (pop order, Dump -> Restore, the lending rule),
## then the parsimd job JSON (the submit handler answers 200/202/400/413/429,
## never a panic or a 5xx, and refuses as malformed exactly what
## cluster.DecodeSubmission refuses), then the parsimd job journal (a
## journal cut at any byte keeps exactly its complete records and takes the
## next append cleanly; arbitrary bytes never panic), then the snapshot
## decoder (every rejection a typed *CorruptError, every accepted frame
## round-trips). The decoder leg caps input minimisation at 2s: its mutated
## ~4 KB snapshots otherwise spend the whole budget minimising (~7k execs
## instead of ~300k).
fuzz-smoke:
	$(GO) test -fuzz=FuzzEngines -fuzztime=30s -run '^$$' .
	$(GO) test -fuzz=FuzzNetlist -fuzztime=15s -run '^$$' ./internal/netlist
	$(GO) test -fuzz=FuzzQueue -fuzztime=15s -run '^$$' ./internal/eventq
	$(GO) test -fuzz=FuzzSubmit -fuzztime=15s -run '^$$' ./internal/server
	$(GO) test -fuzz=FuzzJournal -fuzztime=15s -run '^$$' ./internal/server
	$(GO) test -fuzz=FuzzCheckpoint -fuzztime=15s -fuzzminimizetime=2s -run '^$$' ./internal/checkpoint

clean:
	$(GO) clean ./...
	rm -f .bench-current.json
