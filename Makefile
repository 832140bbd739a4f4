# Convenience targets; `make ci` is the tier-1 gate (see ci.sh).

.PHONY: ci build test vet bench bench-sim bench-smoke bench-all bench-baseline diff-smoke slo-smoke slo-baseline chaos fuzz

ci:
	./ci.sh

build:
	go build ./...

test:
	go test ./...

vet:
	go vet ./...
	go run ./cmd/m3vet ./...

bench:
	go test -bench=. -benchmem

# Per-layer Go benchmarks of the engine and the RDMA path: one Schedule
# plus its step, with events 1 cycle apart (BenchmarkSchedule) and about
# 1500 cycles apart (BenchmarkScheduleSparse, the calendar queue's
# empty-bucket search); one Process.Sleep round trip, engine to process
# and back, with two sleepers tied so neither can skip the switch
# (BenchmarkProcessSwitch); one Sleep with nothing else queued, which
# advances the clock in place (BenchmarkSleepInline, 0 allocs/op); one
# park whose wake-up comes after 0, 1 or 4 callbacks, which the parked
# process runs on its own stack without a switch (BenchmarkParkInPlace,
# 0 allocs/op); one spawn-and-join round, a process that spawns a
# short child on a reused coroutine and joins it (BenchmarkSpawn,
# 4 allocs/op: the Process, its wake closure, the caller's closure and
# the join's waiter slot); and
# one 4 KiB WriteMem plus ReadMem between a PE and DRAM
# (BenchmarkRDMA4K, through the pooled payload buffers and RDMA
# records, 0 allocs/op); one 64-byte
# packet across six hops of a contended mesh as engine events
# (BenchmarkSendThenMultiHop, 0 allocs/op once warm); one 64-byte and
# one 4 KiB Network.Send across six hops of an uncontended mesh, riding
# in its sender through a clear window or parking behind a busy one,
# and of a contended mesh, whose flight the parked sender runs itself
# (BenchmarkSendRide, 0 allocs/op); one 8-byte control packet across
# six hops with SendAsync, paced by an engine event, the way a DTU sends
# acks and NACKs (BenchmarkSendAsync, 0 allocs/op once warm); one
# whole request through the critical-path engine, root open to
# attribution (BenchmarkCritPathConsume, 0 allocs/op once warm); four
# interleaved requests the way perf's tail4 feeds them, default
# population bound and two SLOs attached (BenchmarkCritPathConsumeTail4,
# whose B/op is the summaries kept); one SLO observation
# (BenchmarkSLOObserve); and one 4 KiB Peek or Poke of the DRAM's page
# store, within a written page, of a never-written page and straddling
# two pages (BenchmarkDRAMAccess4K, 0 allocs/op); and, on the namespace
# perf's meta16 walks, one m3fs path resolution (BenchmarkLookup) and
# one nine-entry directory listed in the service's two reply chunks
# (BenchmarkReadDir), both 0 allocs/op.
bench-sim:
	go test -run '^$$' -bench . -benchmem ./internal/sim ./internal/noc ./internal/tile ./internal/obs ./internal/mem ./internal/m3fs

# The bench regression gate: rerun the fast experiment subset with run
# captures bundled, keep the JSON artifact for inspection, and fail if
# any gated metric regressed past its tolerance against the committed
# baseline (BENCH_8.json, refresh with `make bench-baseline` when a
# change legitimately moves the numbers — see docs/EXPERIMENTS.md).
# When the gate is red, the diff attributes every regression via the
# two files' captures (layer/path cycle deltas, histogram shift —
# docs/OBSERVABILITY.md) and the machine-readable attribution
# is retained as artifacts/diff-report.json. Earlier generations'
# baselines live only in git history.
bench-smoke:
	mkdir -p artifacts
	go run ./cmd/m3bench -e smoke -capture -json artifacts/bench-smoke.json >artifacts/bench-smoke.log
	go run ./cmd/m3bench -diff -report artifacts/diff-report.json BENCH_8.json artifacts/bench-smoke.json

bench-baseline:
	go run ./cmd/m3bench -e smoke -capture -json BENCH_8.json

# Every registered experiment, run twice: each one's JSON passes the
# duplicate-metric check, not only the smoke subset, and the two JSON
# files must be byte-identical, so every experiment — the Linux rows
# of Figures 3, 5 and 7 and §5.2 included — is deterministic. The
# first run is kept as artifacts/bench-all.json and bench-all.log.
bench-all:
	mkdir -p artifacts
	go run ./cmd/m3bench -e all -json artifacts/bench-all.json >artifacts/bench-all.log
	go run ./cmd/m3bench -e all -json artifacts/bench-all-again.json >/dev/null
	cmp artifacts/bench-all.json artifacts/bench-all-again.json

# The attribution battery: capture the tier-1 workload twice (the
# captures must be byte-identical), and diff base and changed captures
# of real single-layer changes (DTU stalls, NoC contention, DRAM
# ports, extra syscalls, a journaling m3fs, app compute) against the
# verdicts pinned for them, hits and misses alike, each miss with its
# cause, every report byte-stable (docs/OBSERVABILITY.md).
diff-smoke:
	go test -count=1 -run 'TestAttributionBattery|TestCaptureDeterministic' ./internal/bench

# The SLO regression gate: run the critical-path attribution + SLO
# report (`m3sim slo`) over the tier-1 workload and require the JSON
# report — every blame cell, exemplar span tree, and burn rate — to be
# byte-identical to the committed SLO_0.json golden. The report is
# deterministic by construction (docs/OBSERVABILITY.md), so any diff
# is a real behavior change; refresh with `make slo-baseline` when a
# change legitimately moves the attribution.
slo-smoke:
	mkdir -p artifacts
	go run ./cmd/m3sim slo -w tar -json artifacts/slo-smoke.json >artifacts/slo-smoke.log
	diff -u SLO_0.json artifacts/slo-smoke.json

slo-baseline:
	go run ./cmd/m3sim slo -w tar -json SLO_0.json

# The chaos tier: determinism under fault injection plus the workload
# matrix that proves isolation survives packet loss, PE crashes, and —
# with the supervisor armed — service crashes that must recover
# (docs/FAULTS.md, docs/RECOVERY.md), plus the chaos-overload tier:
# graceful degradation under the admission watermark, its pinned
# witnesses, and the zero-overhead-when-idle bit-identity proof
# (docs/OVERLOAD.md).
# Race-enabled — fault events must not break the engine's strict
# hand-off.
chaos:
	go test -race -run 'TestFaultDeterminism|TestChaosMatrix|TestObsChaosStreamDeterministic|TestFlightDump|TestOverload' ./internal/bench

# Short fuzz smoke over the crash-facing decoders — the fault-plan
# parser, the m3fs metadata journal, and the kif message decoder every
# kernel and service request passes through — plus two cross-checks
# against reference implementations: the event queue (calendar vs
# reference heap pop order) and the critical-path engine (pooled vs
# map-based attribution, reports and interval pairing), the SLO
# windows (running sums vs re-summing the ring), and the DRAM's page
# store (vs the flat byte slice it replaced). The full fuzzers run
# for as long as you let them: go test -fuzz FuzzFaultPlan
# ./internal/fault, go test -fuzz FuzzJournal ./internal/m3fs,
# go test -fuzz FuzzIStream ./internal/kif,
# go test -fuzz FuzzEventQueue ./internal/sim,
# go test -fuzz FuzzCritPath ./internal/obs,
# go test -fuzz FuzzSLO ./internal/obs,
# go test -fuzz FuzzDRAM ./internal/mem.
# -fuzzminimizetime caps the minimization of a new interesting input
# at 200 runs, so a 10 s smoke spends its time fuzzing, not shrinking.
fuzz:
	go test -run '^$$' -fuzz FuzzFaultPlan -fuzztime 10s -fuzzminimizetime 200x ./internal/fault
	go test -run '^$$' -fuzz FuzzJournal -fuzztime 10s -fuzzminimizetime 200x ./internal/m3fs
	go test -run '^$$' -fuzz FuzzIStream -fuzztime 10s -fuzzminimizetime 200x ./internal/kif
	go test -run '^$$' -fuzz FuzzEventQueue -fuzztime 10s -fuzzminimizetime 200x ./internal/sim
	go test -run '^$$' -fuzz FuzzCritPath -fuzztime 10s -fuzzminimizetime 200x ./internal/obs
	go test -run '^$$' -fuzz FuzzSLO -fuzztime 10s -fuzzminimizetime 200x ./internal/obs
	go test -run '^$$' -fuzz FuzzDRAM -fuzztime 10s -fuzzminimizetime 200x ./internal/mem
