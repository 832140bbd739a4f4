#!/bin/sh
# ci.sh — the tier-1 gate. Every PR must pass this script unchanged.
#
#   build      the whole module compiles
#   gofmt      every Go file is gofmt-formatted
#   go vet     the stock Go checks
#   m3vet      the repo's own determinism & isolation linter, including
#              the interprocedural passes (timetaint, capflow); it must
#              report zero findings, and the only suppression is a
#              justified //m3vet:allow comment on the flagged line. The
#              JSON report is kept as artifacts/m3vet.json
#              (see docs/ANALYSIS.md)
#   tests      the full suite under the race detector — any data race
#              would mean the engine's strict coroutine hand-off is
#              broken — with shuffled test order, so no test can
#              silently depend on a sibling running first
#   chaos      the fault-injection tier: determinism under faults, the
#              isolation-survives-failure matrix, service crash
#              recovery, and the chaos-overload tier — graceful
#              degradation under open-loop overload (docs/FAULTS.md,
#              docs/RECOVERY.md, docs/OVERLOAD.md)
#   fuzz       a short smoke over the fault-plan and journal decoders
#   bench      the bench regression gate: the smoke experiment subset
#              (with run captures bundled) diffed against the committed
#              BENCH_5.json baseline; the JSON artifact and the
#              machine-readable regression attribution are kept under
#              artifacts/ — bench-smoke.json and diff-report.json —
#              for inspection (docs/EXPERIMENTS.md)
#   diff       the attribution self-test: a seeded +10% kernel
#              dispatch-cost perturbation must be attributed to the
#              kernel layer by `m3sim diff`, with the baseline captured
#              twice and the two captures byte-identical
#              (docs/OBSERVABILITY.md)
#   slo        the SLO regression gate: the `m3sim slo` attribution report
#              over the tier-1 workload, byte-compared against the
#              committed SLO_0.json golden (docs/OBSERVABILITY.md)
set -eux

go build ./...
test -z "$(gofmt -l .)"
go vet ./...
go run ./cmd/m3vet -json artifacts/m3vet.json ./...
go test -race -shuffle=on ./...
make chaos
make fuzz
make bench-smoke
make diff-smoke
make slo-smoke
