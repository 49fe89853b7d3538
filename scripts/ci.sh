#!/bin/sh
# ci.sh — the repository's gate: vet, build, documentation checks, and every
# test under the race detector. Run it before sending a change.
set -eux
cd "$(dirname "$0")/.."
go vet ./...
go build ./...
# Cross-compile gates: the Linux offload fast path (GSO/GRO, SO_REUSEPORT
# groups, mmap sendfile) must keep the portable stubs compiling on
# platforms that lack it.
GOOS=darwin go build ./...
GOOS=windows go build ./...
# Documentation gates: every exported identifier in the audited packages —
# including the root package (Conn/Mux/pool scheduler APIs) and the shared
# timer wheel — must carry a doc comment, and every relative Markdown link
# must resolve (mdcheck covers DESIGN.md, EXPERIMENTS.md and README.md).
go run ./scripts/doccheck . fabric udtfs internal/campaign internal/congestion internal/core internal/metrics internal/mux internal/netem internal/netem/chaos internal/secure internal/timerwheel internal/timing internal/trace
go run ./scripts/mdcheck
# Fast fail on the concurrency-heavy packages first: the demultiplexer, the
# chaos toolkit and the campaign driver (its multiplexed cells demultiplex
# through internal/mux) in short mode, before the full (slower) race run.
go test -race -short ./internal/mux ./internal/netem/chaos ./internal/campaign
go test -race ./...
# The benchmark is its own Go module, so ./... above never reaches it: run
# its short tests (the byte verifier, the loss-path check on traced bulk,
# server-failure attribution) against this checkout.
(cd udtbench && go test -short .)
# Fuzz smoke: the handshake codec — including the security option fields
# an attacker controls pre-authentication — must never panic or over-read,
# and must stay canonical (decode∘encode identity). A short run per pass;
# longer campaigns reuse the accumulated corpus.
go test ./internal/packet -run XXX -fuzz 'FuzzDecodeHandshake' -fuzztime 10s
# The rendezvous trailer rides the same attacker-controlled handshake
# bytes; its codec gets its own smoke run.
go test ./internal/packet -run XXX -fuzz 'FuzzRendezvousTrailer' -fuzztime 10s
# Offload smoke: proves UDP_SEGMENT trains actually flow on capable
# kernels and prints the train/syscall verdict; the test skips itself
# (never fails) where the kernel or container runtime withholds
# segmentation offload.
go test -run 'TestGSOSmoke' -count=1 -v .
# Fault-injection gate: the fixed-seed chaos matrix with determinism replay
# and a real-stack smoke pass (a few seconds under the virtual clock).
go run ./cmd/udtchaos -determinism -real
# Congestion-control gate: every pluggable law through loss plus the
# two-law fairness cells, bit-identical on replay.
go run ./cmd/udtchaos -ccmatrix -determinism
# Campaign gate: the CI topology campaigns — the 100-flow mixed-law dumbbell
# and the 32-flow flash-crowd star — run twice each and must replay
# bit-identically; their headline metrics land in a snapshot for the
# regression gate below.
campmetrics=$(mktemp)
trap 'rm -f "$campmetrics" "$campmetrics.bad"' EXIT
go run ./cmd/udtchaos -campaign -determinism -metrics "$campmetrics"
# Perf-regression gate: benchdiff must pass the fresh campaign metrics
# against the pinned baseline (campaign numbers are virtual-clock
# deterministic, held to 0.1%) ...
go run ./scripts/benchdiff -baseline BENCH_baseline.json -current "$campmetrics"
# ... and must demonstrably FAIL when a goodput regression is injected —
# the gate itself is under test, a benchdiff that passes everything is a
# silent hole in CI.
sed 's/"campaign_dumbbell100_agg_goodput_mbps": [0-9eE.+-]*/"campaign_dumbbell100_agg_goodput_mbps": 1/' "$campmetrics" > "$campmetrics.bad"
if go run ./scripts/benchdiff -baseline BENCH_baseline.json -current "$campmetrics.bad"; then
	echo "ci.sh: benchdiff accepted an injected goodput regression" >&2
	exit 1
fi
