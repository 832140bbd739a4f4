#!/bin/sh
# ci.sh — the tier-1 gate. Every PR must pass this script unchanged.
#
#   build      the whole module compiles
#   gofmt      every Go file is gofmt-formatted
#   go vet     the stock Go checks, also over the perf/ benchmark
#              module, which `go vet ./...` skips because it is a
#              separate module: a change to the internal API it calls
#              then fails here instead of in the benchmark run
#   m3vet      the repo's own determinism & isolation linter, including
#              the interprocedural timetaint pass; it must report zero
#              findings, the only suppression is a justified
#              //m3vet:allow comment on the flagged line, and an allow
#              that suppresses nothing is a finding too
#              (see docs/ANALYSIS.md)
#   tests      the full suite under the race detector — any data race
#              would mean the engine's strict coroutine hand-off is
#              broken — with shuffled test order, so no test can
#              silently depend on a sibling running first
#   perf tests the perf/ benchmark module's own tests, also under the
#              race detector: its defaultWitness pins each workload's
#              executed events and final cycle at seed 1, so a change
#              that moves a benchmark workload's schedule fails here
#              instead of as failed iterations in the benchmark run
#   chaos      the fault-injection tier: determinism under faults, the
#              isolation-survives-failure matrix, service crash
#              recovery, and the chaos-overload tier — graceful
#              degradation under open-loop overload (docs/FAULTS.md,
#              docs/RECOVERY.md, docs/OVERLOAD.md)
#   fuzz       a short smoke over the fault-plan and journal decoders
#   bench      the bench regression gate: the smoke experiment subset
#              (with run captures bundled) diffed against the committed
#              BENCH_7.json baseline; the JSON artifact and the
#              machine-readable regression attribution are kept under
#              artifacts/ — bench-smoke.json and diff-report.json —
#              for inspection (docs/EXPERIMENTS.md)
#   bench-all  every registered experiment twice (~1.5 s each), so
#              each one's JSON passes the duplicate-metric check, not
#              only the smoke subset, and the two JSON files must be
#              byte-identical; output kept as artifacts/bench-all.json
#              and artifacts/bench-all.log
#   diff       the attribution battery: what `m3sim diff` reports on
#              real single-layer changes, hits and misses alike, must
#              match the verdicts pinned in TestAttributionBattery, and
#              two captures of one run must be byte-identical
#              (docs/OBSERVABILITY.md)
#   slo        the SLO regression gate: the `m3sim slo` attribution report
#              over the tier-1 workload, byte-compared against the
#              committed SLO_0.json golden (docs/OBSERVABILITY.md)
set -eux

go build ./...
test -z "$(gofmt -l .)"
go vet ./...
(cd perf && go vet ./...)
go run ./cmd/m3vet ./...
go test -race -shuffle=on ./...
(cd perf && go test -race ./...)
make chaos
make fuzz
make bench-smoke
make bench-all
make diff-smoke
make slo-smoke
