# Convenience targets; `make ci` is the tier-1 gate (see ci.sh).

.PHONY: ci build test vet bench bench-sim bench-smoke bench-baseline diff-smoke slo-smoke slo-baseline chaos fuzz

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
# and back; and one 4 KiB WriteMem plus ReadMem between a PE and DRAM
# (BenchmarkRDMA4K, through the pooled payload buffers); one 64-byte
# packet across six hops of a contended mesh as engine events
# (BenchmarkSendThenMultiHop, 0 allocs/op once warm); and one whole
# request through the critical-path engine, root open to attribution
# (BenchmarkCritPathConsume, 0 allocs/op once warm).
bench-sim:
	go test -run '^$$' -bench . -benchmem ./internal/sim ./internal/noc ./internal/tile ./internal/obs

# The bench regression gate: rerun the fast experiment subset with run
# captures bundled, keep the JSON artifact for inspection, and fail if
# any gated metric regressed past its tolerance against the committed
# baseline (BENCH_5.json, refresh with `make bench-baseline` when a
# change legitimately moves the numbers — see docs/EXPERIMENTS.md).
# When the gate is red, the diff attributes every regression via the
# two files' captures (layer/path cycle deltas, histogram shift, blame
# drift — docs/OBSERVABILITY.md) and the machine-readable attribution
# is retained as artifacts/diff-report.json. BENCH_0.json through
# BENCH_4.json are previous generations' baselines, kept for
# historical comparison.
bench-smoke:
	mkdir -p artifacts
	go run ./cmd/m3bench -e smoke -capture -json artifacts/bench-smoke.json >artifacts/bench-smoke.log
	go run ./cmd/m3bench -diff -report artifacts/diff-report.json BENCH_5.json artifacts/bench-smoke.json

bench-baseline:
	go run ./cmd/m3bench -e smoke -capture -json BENCH_5.json

# The attribution self-test: capture the tier-1 workload twice (the
# captures must be byte-identical), re-capture with the kernel's
# syscall dispatch cost perturbed +10%, and require `m3sim diff` to
# attribute the regression to the kernel — top blame-drift category
# and a growing kernel profile layer — with byte-stable reports.
diff-smoke:
	go run ./cmd/m3sim diff -selftest

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
# graceful degradation, kernel shedding, deadline expiry, and the
# zero-overhead-when-off bit-identity proof (docs/OVERLOAD.md).
# Race-enabled — fault events must not break the engine's strict
# hand-off.
chaos:
	go test -race -run 'TestFaultDeterminism|TestChaosMatrix|TestObsChaosStreamDeterministic|TestFlightDump|TestOverload' ./internal/bench

# Short fuzz smoke over the crash-facing decoders — the fault-plan
# parser and the m3fs metadata journal — plus two cross-checks against
# reference implementations: the event queue (calendar vs reference
# heap pop order) and the critical-path engine (pooled vs map-based
# attribution, reports and interval pairing). The full fuzzers run for
# as long as you let them: go test -fuzz FuzzFaultPlan
# ./internal/fault, go test -fuzz FuzzJournal ./internal/m3fs,
# go test -fuzz FuzzEventQueue ./internal/sim,
# go test -fuzz FuzzCritPath ./internal/obs.
fuzz:
	go test -run '^$$' -fuzz FuzzFaultPlan -fuzztime 10s ./internal/fault
	go test -run '^$$' -fuzz FuzzJournal -fuzztime 10s ./internal/m3fs
	go test -run '^$$' -fuzz FuzzEventQueue -fuzztime 10s ./internal/sim
	go test -run '^$$' -fuzz FuzzCritPath -fuzztime 10s ./internal/obs
