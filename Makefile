# PR gate and developer shortcuts. `make check` is what every PR must pass:
# vet (of the main module and of the perfbench harness module), the
# privmemvet analyzer suite (lint), build, the full test suite under the race
# detector (the RunAll and serve concurrency tests only count as coverage
# when raced), the per-package coverage floors (run without the race
# detector, so the allocation-ceiling tests that race builds skip gate
# there), a fuzz smoke of the fleet mix parser, of the store's envelope
# decoder, of the factored FHMM decode against its dense oracle, of
# SunSpot's bound-pruned forward model against its dense oracle and of the
# LAN capture's run merge against a stable sort, the memoird smoke test
# (random port, /healthz + report probes, cache-hit verification, clean
# shutdown), a one-second load through memoirload and a small fleet run
# through memoirctl. perfbench (BENCHMARK.json) is the one benchmark
# surface; `make bench` runs the `go test -bench` functions for local
# measurement only.

GO ?= go

# Packages whose statement coverage must stay at or above COVER_FLOOR.
COVER_FLOOR ?= 70
COVER_PKGS ?= ./internal/timeseries ./internal/meter ./internal/serve ./internal/attack/fingerprint ./internal/defense/stp ./internal/fleet ./internal/hmm ./internal/analysis ./internal/metrics ./internal/nettrace ./internal/attack/niom ./internal/attack/sunspot ./internal/solarsim ./internal/home ./internal/attack/nilm ./internal/par

# Second coverage tier: the daemon/load-generator mains are signal/listen
# plumbing that only an end-to-end run exercises, so they carry a lower
# floor — set to what the packages pass today, so coverage can only ratchet
# up.
COVER_FLOOR_CMD ?= 35
COVER_PKGS_CMD ?= ./cmd/memoird ./cmd/memoirload

# Budget for the fuzz smoke. CI uses the default; raise it for a
# longer local hunt, e.g. `make fuzz FUZZTIME=10m`.
FUZZTIME ?= 30s

.PHONY: check vet perfbench-vet lint build test race short golden cover cover-cmd fuzz bench figures smoke smoke-load smoke-fleet memoird

check: vet perfbench-vet lint build race golden cover fuzz smoke smoke-load smoke-fleet

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
# >= COVER_FLOOR_CMD, or the target fails. cover_gate is the one loop both
# targets run: $(call cover_gate,<packages>,<floor>).
define cover_gate
@set -e; for pkg in $(1); do \
	out=$$($(GO) test -count=1 -cover $$pkg); \
	echo "$$out"; \
	pct=$$(echo "$$out" | sed -n 's/.*coverage: \([0-9.]*\)% of statements.*/\1/p'); \
	if [ -z "$$pct" ]; then echo "cover: no coverage line for $$pkg"; exit 1; fi; \
	ok=$$(awk -v p=$$pct -v f=$(2) 'BEGIN { print (p >= f) ? 1 : 0 }'); \
	if [ "$$ok" != "1" ]; then \
		echo "cover: $$pkg at $$pct% is below the $(2)% floor"; exit 1; \
	fi; \
done
endef

cover: cover-cmd
	$(call cover_gate,$(COVER_PKGS),$(COVER_FLOOR))

cover-cmd:
	$(call cover_gate,$(COVER_PKGS_CMD),$(COVER_FLOOR_CMD))

# fuzz runs five native fuzz targets, each for FUZZTIME: the two parsers
# of untrusted input — the fleet mix parser (against the checked-in corpus
# under internal/fleet/testdata/fuzz/), then the store's envelope decoder,
# the only reader of on-disk bytes — and three kernels against their
# oracles: the factored FHMM decode, whose paths and scores must equal the
# dense oracle's bit for bit on models and observations (NaN, ±Inf,
# ±1e300 among them) built from the input, SunSpot's bound-pruned
# forward model, whose windows must equal the every-step model's exactly
# at a day, latitude and threshold decoded from the input, and the LAN
# capture's run merge, whose order must equal a stable sort by time on
# heavily tied records decoded from the input. Any
# crasher is written back under the package's testdata/fuzz/ as a failing
# seed, so a red `make fuzz` leaves a reproducer behind.
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzFleetConfig$$' -fuzztime $(FUZZTIME) ./internal/fleet
	$(GO) test -run '^$$' -fuzz '^FuzzStoreEntry$$' -fuzztime $(FUZZTIME) ./internal/serve
	$(GO) test -run '^$$' -fuzz '^FuzzFactorialDecode$$' -fuzztime $(FUZZTIME) ./internal/hmm
	$(GO) test -run '^$$' -fuzz '^FuzzModelWindows$$' -fuzztime $(FUZZTIME) ./internal/attack/sunspot
	$(GO) test -run '^$$' -fuzz '^FuzzSortByTime$$' -fuzztime $(FUZZTIME) ./internal/nettrace

bench:
	$(GO) test -bench . -benchmem -run '^$$' ./...

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

memoird:
	$(GO) run ./cmd/memoird
