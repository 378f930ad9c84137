# PR gate and developer shortcuts. `make check` is what every PR must pass:
# vet (of the main module and of the perfbench harness module), the
# privmemvet analyzer suite (lint), build, the full test suite under the race
# detector (the RunAll and serve concurrency tests only count as coverage
# when raced), the per-package coverage floors, a fuzz smoke of the fleet
# mix parser and of the store's envelope decoder, and the memoird smoke test (random port, /healthz + report
# probes, cache-hit verification, clean shutdown).

GO ?= go

# Packages whose statement coverage must stay at or above COVER_FLOOR.
COVER_FLOOR ?= 70
COVER_PKGS ?= ./internal/timeseries ./internal/meter ./internal/serve ./cmd/benchjson ./internal/attack/fingerprint ./internal/defense/stp ./internal/fleet ./internal/hmm ./internal/analysis ./internal/metrics ./internal/nettrace ./internal/attack/niom ./internal/attack/sunspot ./internal/solarsim ./internal/home ./internal/attack/nilm ./internal/par

# Second coverage tier: the daemon/load-generator mains are signal/listen
# plumbing that only an end-to-end run exercises, so they carry a lower
# floor — set to what the packages pass today, so coverage can only ratchet
# up.
COVER_FLOOR_CMD ?= 35
COVER_PKGS_CMD ?= ./cmd/memoird ./cmd/memoirload

# Budget for the fuzz smoke. CI uses the default; raise it for a
# longer local hunt, e.g. `make fuzz FUZZTIME=10m`.
FUZZTIME ?= 30s

.PHONY: check vet perfbench-vet lint lint-stats build test race short golden cover cover-cmd fuzz bench bench-serve bench-experiments bench-armsrace bench-fleet bench-diff bench-all bench-load figures smoke smoke-load smoke-fleet memoird

check: vet perfbench-vet lint build race golden cover fuzz smoke smoke-load smoke-fleet bench-diff

vet:
	$(GO) vet ./...

# perfbench-vet type-checks the benchmark harness, a separate module that
# `go build ./...` never compiles: an exported-API change in the main module
# that breaks the harness fails here instead of at benchmark time.
perfbench-vet:
	cd perfbench && $(GO) vet ./...

# The analyzer binary is built once and reused: `go run` re-links on every
# invocation, which dominated lint wall-time. The target rebuilds only when
# an analyzer source file changes.
PRIVMEMVET_SRC := $(shell find cmd/privmemvet internal/analysis -name '*.go' -not -path '*/testdata/*') go.mod
bin/privmemvet: $(PRIVMEMVET_SRC)
	$(GO) build -o $@ ./cmd/privmemvet

# lint runs the repository's own analyzer suite (internal/analysis via
# cmd/privmemvet): determinism (detrand, maporder, the interprocedural
# deterministic certifier), seeding discipline (seedflow), lock scope
# (mutexscope), error paths (errpath), discarded pure results (purecall),
# the concurrency checks (poolescape, atomicmix, floatorder), and the
# whole-program deadexport check, which also loads perfbench and flags
# internal/ exports only tests reference. Packages are type-checked from
# source against standard-library export data from `go list -export`. A
# finding fails the gate unless the line carries a reasoned `//lint:allow
# <analyzer> <reason>` (or, for a whole intentionally-impure subtree,
# `//lint:trust <func> <reason>` in its doc comment) — see DESIGN.md §8
# and §13.
lint: bin/privmemvet
	./bin/privmemvet ./...

# lint-stats snapshots per-analyzer finding counts and wall-time as the
# BENCH_lint.json trajectory, so analyzer cost is tracked like every other
# perf surface.
lint-stats: bin/privmemvet
	./bin/privmemvet -stats ./... | $(GO) run ./cmd/benchjson > BENCH_lint.json

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

short:
	$(GO) test -short ./...

# golden diffs the full-scale output of every registered experiment against
# the checked-in figures_output.txt, which pins the report bytes (and so
# every intra-experiment fan-out) at the default seed. The trailing
# "(N/M experiments in T, W workers)" summary lines carry wall-clock time
# and are stripped from both sides.
GOLDEN_STRIP = '^\([0-9]+/[0-9]+ experiments in '
golden:
	@set -e; want=$$(mktemp); trap 'rm -f "$$want"' EXIT; \
	grep -Ev $(GOLDEN_STRIP) figures_output.txt > "$$want"; \
	$(GO) run ./cmd/figures -all | grep -Ev $(GOLDEN_STRIP) | diff -u "$$want" -

# cover enforces the coverage gates: each package in COVER_PKGS must report
# statement coverage >= COVER_FLOOR percent, and each in COVER_PKGS_CMD
# >= COVER_FLOOR_CMD, or the target fails.
cover: cover-cmd
	@set -e; for pkg in $(COVER_PKGS); do \
		out=$$($(GO) test -count=1 -cover $$pkg); \
		echo "$$out"; \
		pct=$$(echo "$$out" | sed -n 's/.*coverage: \([0-9.]*\)% of statements.*/\1/p'); \
		if [ -z "$$pct" ]; then echo "cover: no coverage line for $$pkg"; exit 1; fi; \
		ok=$$(awk -v p=$$pct -v f=$(COVER_FLOOR) 'BEGIN { print (p >= f) ? 1 : 0 }'); \
		if [ "$$ok" != "1" ]; then \
			echo "cover: $$pkg at $$pct% is below the $(COVER_FLOOR)% floor"; exit 1; \
		fi; \
	done

cover-cmd:
	@set -e; for pkg in $(COVER_PKGS_CMD); do \
		out=$$($(GO) test -count=1 -cover $$pkg); \
		echo "$$out"; \
		pct=$$(echo "$$out" | sed -n 's/.*coverage: \([0-9.]*\)% of statements.*/\1/p'); \
		if [ -z "$$pct" ]; then echo "cover: no coverage line for $$pkg"; exit 1; fi; \
		ok=$$(awk -v p=$$pct -v f=$(COVER_FLOOR_CMD) 'BEGIN { print (p >= f) ? 1 : 0 }'); \
		if [ "$$ok" != "1" ]; then \
			echo "cover: $$pkg at $$pct% is below the $(COVER_FLOOR_CMD)% floor"; exit 1; \
		fi; \
	done

# fuzz runs the native fuzz targets of the two parsers of untrusted input,
# each for FUZZTIME: the fleet mix parser (against the checked-in corpus
# under internal/fleet/testdata/fuzz/), then the store's envelope decoder,
# the only reader of on-disk bytes. Any crasher is written back under the
# package's testdata/fuzz/ as a failing seed, so a red `make fuzz` leaves a
# reproducer behind.
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzFleetConfig$$' -fuzztime $(FUZZTIME) ./internal/fleet
	$(GO) test -run '^$$' -fuzz '^FuzzStoreEntry$$' -fuzztime $(FUZZTIME) ./internal/serve

bench:
	$(GO) test -bench . -benchmem -run '^$$' ./...

# bench-serve snapshots the report-cache benchmarks as machine-readable
# JSON (BENCH_serve.json) for cross-PR comparison.
bench-serve:
	$(GO) test -bench 'BenchmarkReportCache' -benchmem -run '^$$' ./internal/serve \
		| $(GO) run ./cmd/benchjson > BENCH_serve.json

# bench-experiments snapshots the per-experiment benchmarks (one per
# reproduced figure/table plus the RunAll suite, with their headline-metric
# columns) and the kernel benchmarks as BENCH_experiments.json — the
# harness's cross-PR performance trajectory. The hmm, nettrace and solarsim
# packages ride along so the bench-diff allocs/op guard covers the FHMM
# decode and training kernels, feature extraction and grid generation.
bench-experiments:
	$(GO) test -bench . -benchmem -run '^$$' . ./internal/hmm ./internal/nettrace ./internal/solarsim \
		| $(GO) run ./cmd/benchjson > BENCH_experiments.json

# bench-armsrace snapshots the adaptive-adversary matrix benchmark (with
# its retraining-advantage headline metrics) as BENCH_armsrace.json.
bench-armsrace:
	$(GO) test -bench 'BenchmarkArmsRace' -benchmem -run '^$$' . \
		| $(GO) run ./cmd/benchjson > BENCH_armsrace.json

# bench-fleet snapshots the fleet streaming benchmark (homes/sec, bytes/home,
# and per-capita leakage-latency headline columns) as BENCH_fleet.json.
bench-fleet:
	$(GO) test -bench 'BenchmarkFleet' -benchmem -run '^$$' ./internal/fleet \
		| $(GO) run ./cmd/benchjson > BENCH_fleet.json

# bench-diff re-runs the experiment benchmarks and compares against the
# checked-in BENCH_experiments.json trajectory. It must use the same
# benchtime as the snapshot: a -benchtime 1x run measures the cold
# first-touch path (world builds included), which the warm steady-state
# baseline would always flag. Warn-only by default (the leading "-"):
# timings are noisy, so drift is surfaced in the log without failing the
# gate. Setting BENCH_FAIL_PCT turns the comparison into a hard gate:
# `make bench-diff BENCH_FAIL_PCT=40` fails on any benchmark more than 40%
# slower than its snapshot (or past the allocs/op guard). `make check`
# leaves it unset.
BENCH_FAIL_PCT ?=
ifneq ($(BENCH_FAIL_PCT),)
bench-diff:
	$(GO) test -bench . -benchmem -run '^$$' . ./internal/hmm ./internal/nettrace ./internal/solarsim \
		| $(GO) run ./cmd/benchjson -diff BENCH_experiments.json -fail-pct $(BENCH_FAIL_PCT)
else
bench-diff:
	-$(GO) test -bench . -benchmem -run '^$$' . ./internal/hmm ./internal/nettrace ./internal/solarsim \
		| $(GO) run ./cmd/benchjson -diff BENCH_experiments.json
endif

# bench-all regenerates every checked-in benchmark snapshot in one pass —
# the five BENCH_*.json trajectory files a perf PR should refresh together.
bench-all: bench-experiments bench-serve bench-armsrace bench-fleet bench-load

figures:
	$(GO) run ./cmd/figures

smoke:
	$(GO) run ./cmd/memoird -smoke

# smoke-load boots an in-process memoird and drives a one-second open-loop
# load through cmd/memoirload: the gate proves the generator, the serving
# tier, and the histogram line survive real traffic. The tiny key space
# keeps the run cache-dominated, so it finishes in seconds.
smoke-load:
	$(GO) run ./cmd/memoirload -selfserve -duration 1s -rps 25 -experiments t6 -seeds 2 -warm

# smoke-fleet streams a small population end to end through memoirctl: the
# gate proves the CLI flags, the mix parser, the day loop, and the summary
# renderer against a real (if tiny) fleet.
smoke-fleet:
	$(GO) run ./cmd/memoirctl fleet -homes 300 -workers 3 -days 2 -quick -mix family:0.5,apartment:0.3,cottage:0.2

# bench-load snapshots the serving tier's latency distribution under a
# Zipf-shaped open-loop load as BENCH_load.json (p50/p95/p99 columns via
# the shared log2 histogram). -warm primes every key first so the timed
# window measures the steady cache-dominated state the tier is designed
# for, with the long Zipf tail still forcing some generation traffic.
bench-load:
	$(GO) run ./cmd/memoirload -selfserve -duration 5s -rps 200 \
		-experiments t6,f1,f2 -seeds 20 -warm \
		| $(GO) run ./cmd/benchjson > BENCH_load.json

memoird:
	$(GO) run ./cmd/memoird
