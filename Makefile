GO ?= go

.PHONY: all build test race muxrace fabric vet ci bench smoke docs chaos ccmatrix campaign

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# muxrace is the quick concurrency gate: the shared-socket demultiplexer, the
# chaos toolkit and the campaign driver (whose multiplexed cells demultiplex
# through internal/mux) under the race detector in short mode (the full
# 1000-flow stress runs in `make race`).
muxrace:
	$(GO) vet ./internal/mux ./internal/netem/chaos ./internal/campaign
	$(GO) test -race -short ./internal/mux ./internal/netem/chaos ./internal/campaign

# fabric is the transport-adapter + rendezvous + udtfs race gate: the pipe
# and framed adapters, simultaneous-dial crossings on shared mux sockets
# (TestRendezvousCrossingStress), and the resumable transfer service, all
# under the race detector in short mode.
fabric:
	$(GO) vet ./fabric ./udtfs .
	$(GO) test -race -short ./fabric ./udtfs
	$(GO) test -race -short -run 'TestRendezvous|TestRdvWins' .

vet:
	$(GO) vet ./...

ci:
	sh scripts/ci.sh

# bench regenerates the performance snapshot; diff against BENCH_baseline.json
# to spot regressions (numbers are machine-dependent — compare ratios, and the
# alloc counts, which must be exactly zero).
bench:
	sh scripts/bench.sh BENCH_current.json
	@cat BENCH_current.json

# docs runs the documentation gates: godoc coverage of the audited packages
# (including the root package and the timer wheel) and Markdown link
# integrity.
docs:
	$(GO) run ./scripts/doccheck . fabric udtfs internal/campaign internal/congestion internal/core internal/metrics internal/mux internal/netem internal/netem/chaos internal/timerwheel internal/timing internal/trace
	$(GO) run ./scripts/mdcheck

# chaos runs the fixed-seed fault-injection matrix (campaign.QuickMatrix):
# full transfers of checksummed payloads through impaired netem paths (loss,
# bursts, corruption, reordering, partitions), each cell replayed twice under
# the virtual clock and required to hash identically, plus a real-stack
# smoke pass. Seconds of wall time; see EXPERIMENTS.md.
chaos:
	$(GO) run ./cmd/udtchaos -determinism -real

# ccmatrix runs the congestion-control matrix (campaign.CCMatrix): each
# pluggable law carrying transfers through loss, plus fairness cells racing
# two laws over one shared rate-capped link — all replayed twice and required
# to hash identically. See DESIGN.md "Configurable congestion
# control".
ccmatrix:
	$(GO) run ./cmd/udtchaos -ccmatrix -determinism

# campaign runs the CI topology campaigns: the 100-flow mixed-law dumbbell
# and the 32-flow flash-crowd star over multi-hop netem fabrics, each
# replayed twice and required to hash identically, then diffed against the
# pinned perf baseline. Seconds of wall time; see DESIGN.md §4.12 and
# EXPERIMENTS.md.
campaign:
	$(GO) run ./cmd/udtchaos -campaign -determinism -metrics BENCH_campaign.json -v
	$(GO) run ./scripts/benchdiff -baseline BENCH_baseline.json -current BENCH_campaign.json

# smoke is the fast correctness pass: the allocation gates plus the simulator
# determinism suite.
smoke:
	$(GO) test ./internal/netsim -run 'ZeroAlloc|Pool|DoubleFree|TotalOrder' -count=1
	$(GO) test . -run 'TestSenderPathAllocs|TestDrainOutboxSizing' -count=1
