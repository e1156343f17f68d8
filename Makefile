# Developer entry points. Everything is plain go tooling; the targets
# just pin the combinations CI runs so they are reproducible locally.

GO ?= go

.PHONY: all tier1 vet cross race fuzz-short vuln lint-designs lint-layering torture torture-faults torture-reboots torture-spares torture-guided torture-kv torture-compact torture-long campaign campaign-short kv-smoke benchmark-check ci profile profile-kv clean

all: tier1

# tier1 is the gating check: the build plus the full test suite (which
# includes the short torture matrix).
tier1:
	$(GO) build ./...
	$(GO) test ./...

vet:
	$(GO) vet ./...

# cross compiles the module for the architectures tier1 never builds:
# the SHA-1 block kernel is amd64 assembly, so arm64 and 386 take the
# crypto/hmac fallback through sha1block_other.go (on amd64, vet's
# asmdecl pass checks the assembly against its Go declaration).
cross:
	GOARCH=arm64 $(GO) vet ./...
	GOARCH=386 $(GO) build ./...

# race runs the concurrency-sensitive packages under the race detector:
# the parallel evaluation matrix, the simulator it drives, the torture
# harness's parallel cell runner, the recovery package it re-enters (and
# whose counter walk splits across goroutines), the two packages that
# serve concurrent clients — the KV server, whose Open scans in three
# stages, and the store facade below it (-short trims only the 20 000-put
# snapshot-leak drill, which the detector slows tenfold) — and mem, whose
# checksum seals every record the others persist.
race:
	$(GO) test -race ./internal/experiments/ ./internal/sim/ ./internal/torture/ ./internal/recovery/
	$(GO) test -race -short ./internal/kv/ ./internal/store/ ./internal/mem/

# fuzz-short gives each native fuzz target a fixed small budget; crashes
# land in testdata/fuzz/ as regression inputs.
fuzz-short:
	$(GO) test -fuzz=FuzzParse -fuzztime=10s ./internal/trace/
	$(GO) test -fuzz=FuzzCompressRoundTrip -fuzztime=10s ./internal/compress/
	$(GO) test -fuzz=FuzzCounterLineCodec -fuzztime=10s ./internal/seccrypto/
	$(GO) test -fuzz=FuzzHMACKernel -fuzztime=10s ./internal/seccrypto/
	$(GO) test -fuzz=FuzzStoreModel -fuzztime=10s ./internal/mem/
	$(GO) test -fuzz=FuzzOwedQueue -fuzztime=10s ./internal/memctrl/
	$(GO) test -fuzz=FuzzDecodeImage -fuzztime=10s ./internal/store/
	$(GO) test -fuzz=FuzzBootVerdict -fuzztime=10s ./internal/store/
	$(GO) test -fuzz=FuzzRequestKeepsImage -fuzztime=10s ./internal/store/
	$(GO) test -fuzz=FuzzTable -fuzztime=10s ./internal/twoslot/
	$(GO) test -fuzz=FuzzLogFrame -fuzztime=10s ./internal/kv/
	$(GO) test -fuzz=FuzzCell -fuzztime=20s ./internal/torture/
	$(GO) test -fuzz=FuzzFaultCell -fuzztime=20s ./internal/torture/
	$(GO) test -fuzz=FuzzRebootCell -fuzztime=20s ./internal/torture/
	$(GO) test -fuzz=FuzzSpareCell -fuzztime=20s ./internal/torture/
	$(GO) test -fuzz=FuzzKVCompactCell -fuzztime=20s ./internal/torture/
	$(GO) test -fuzz=FuzzPorderEvents -fuzztime=15s ./internal/porder/
	$(GO) test -fuzz=FuzzWireCodec -fuzztime=15s ./internal/kv/
	$(GO) test -fuzz=FuzzLazyPath -fuzztime=10s ./internal/engine/
	$(GO) test -fuzz=FuzzNeverWrittenRead -fuzztime=10s ./internal/engine/

# vuln scans the module against the Go vulnerability database. Skipped
# with a notice when govulncheck is not installed (it needs network
# access to fetch; we never install tools from a build target).
vuln:
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./...; \
	else \
		echo "vuln: govulncheck not installed, skipping (go install golang.org/x/vuln/cmd/govulncheck@latest)"; \
	fi

# lint-designs enforces the design registry: no quoted design names and
# no switches on a .Design field outside internal/design (tests may
# spell names out — that is what pins the registry). The names are the
# string constants of internal/design/names/names.go, so a new design is
# linted without editing this target. A line that is just the
# root-package import `"ccnvm"` is excluded; it is an import path, not a
# design name.
lint-designs:
	@names=$$(sed -n 's/^[[:space:]]*[A-Za-z0-9_]*[[:space:]]*=[[:space:]]*"\([^"]*\)".*/\1/p' \
		internal/design/names/names.go | paste -sd '|' -); \
	if [ -z "$$names" ]; then \
		echo "lint-designs: no design names found in internal/design/names/names.go"; \
		exit 1; \
	fi; \
	bad=$$(grep -rn -E "\"($$names)\"" \
		--include='*.go' . \
		| grep -v '_test\.go' | grep -v '^\./internal/design/' \
		| grep -v -E ':[[:space:]]*(_ )?"ccnvm"$$'); \
	sw=$$(grep -rn -E 'switch[^{]*\.Design\b' --include='*.go' . \
		| grep -v '_test\.go' | grep -v '^\./internal/design/'); \
	if [ -n "$$bad$$sw" ]; then \
		echo "lint-designs: design names must come from the internal/design registry:"; \
		printf '%s\n%s\n' "$$bad" "$$sw" | sed '/^$$/d; s/^/  /'; \
		exit 1; \
	fi; \
	echo "lint-designs: ok"

# lint-layering enforces seven boundaries. internal/memctrl is behind the
# storage-engine facade: importable only by the facade itself and the
# engine-core packages that assemble a controller; everything else —
# simulator, KV layer, experiments, commands — must go through
# internal/store. internal/metacache is behind it too: the metadata
# cache's geometry is the paper's, fixed where the store assembles an
# engine, so nothing above the facade imports it. The design registry
# is the only way to a design: non-test code outside internal/core and
# internal/design never imports internal/core, so no caller can reach
# for a concrete cc-NVM engine.
# And keys and crypto engines stay below the store: non-test code in
# internal/kv never imports internal/seccrypto, so the KV layer opens
# lines only through the store's Opener. Finally, the torture harness's
# break modes live in the harness: no non-test code outside
# internal/torture and cmd/ccnvm-torture mentions sabotage, so no
# product package carries a deliberate defect. Media faults have one
# front end too: no non-test code outside internal/nvm, internal/torture
# and cmd/ccnvm-torture builds an nvm.FaultModel, so the simulator and
# the figures run the paper's faultless machine. Every way to build one
# (a literal, new, a var or field of the type) names the type other
# than behind a '*', so the rule flags any such mention outside a
# comment line; the layers that only pass a model on (*nvm.FaultModel)
# stay free to. Last, the controller's request scope belongs to the
# facade: no non-test code outside internal/memctrl and internal/store
# mentions BeginRequest or EndRequest, so the simulator, which drives
# the engine directly, never opens a request and the figures keep the
# paper's per-miss traffic.
lint-layering:
	@bad=$$(grep -rl '"ccnvm/internal/memctrl"' --include='*.go' . \
		| grep -v -E '^\./internal/(memctrl|store|engine|core|design|porder)/'); \
	meta=$$(grep -rl '"ccnvm/internal/metacache"' --include='*.go' . \
		| grep -v -E '^\./internal/(metacache|engine|core|design|store)/'); \
	core=$$(grep -rl '"ccnvm/internal/core"' --include='*.go' . \
		| grep -v '_test\.go' | grep -v -E '^\./internal/(core|design)/'); \
	cry=$$(grep -rl '"ccnvm/internal/seccrypto"' --include='*.go' ./internal/kv \
		| grep -v '_test\.go'); \
	sab=$$(grep -rli 'sabotage' --include='*.go' . \
		| grep -v '_test\.go' | grep -v -E '^\./(internal/torture|cmd/ccnvm-torture)/'); \
	flt=$$(grep -rnE '(^|[^*])nvm\.FaultModel\b' --include='*.go' . \
		| grep -v -E '^[^:]+:[0-9]+:[[:space:]]*//' | cut -d: -f1 | sort -u \
		| grep -v '_test\.go' | grep -v -E '^\./(internal/nvm|internal/torture|cmd/ccnvm-torture)/'); \
	req=$$(grep -rlE '\b(Begin|End)Request\b' --include='*.go' . \
		| grep -v '_test\.go' | grep -v -E '^\./internal/(memctrl|store)/'); \
	if [ -n "$$bad" ]; then \
		echo "lint-layering: internal/memctrl is behind the internal/store facade; import that instead:"; \
		echo "$$bad" | sed 's/^/  /'; \
	fi; \
	if [ -n "$$meta" ]; then \
		echo "lint-layering: internal/metacache is assembled by internal/store; nothing above the facade imports it:"; \
		echo "$$meta" | sed 's/^/  /'; \
	fi; \
	if [ -n "$$core" ]; then \
		echo "lint-layering: internal/core is reached through the internal/design registry; import that instead:"; \
		echo "$$core" | sed 's/^/  /'; \
	fi; \
	if [ -n "$$cry" ]; then \
		echo "lint-layering: internal/kv opens lines through the internal/store Opener, not internal/seccrypto:"; \
		echo "$$cry" | sed 's/^/  /'; \
	fi; \
	if [ -n "$$sab" ]; then \
		echo "lint-layering: break modes live in internal/torture; no product code carries a sabotage hook:"; \
		echo "$$sab" | sed 's/^/  /'; \
	fi; \
	if [ -n "$$flt" ]; then \
		echo "lint-layering: media faults are driven by the torture harness alone; nothing else builds an nvm.FaultModel:"; \
		echo "$$flt" | sed 's/^/  /'; \
	fi; \
	if [ -n "$$req" ]; then \
		echo "lint-layering: only the internal/store facade opens controller requests; nothing else mentions BeginRequest/EndRequest:"; \
		echo "$$req" | sed 's/^/  /'; \
	fi; \
	if [ -n "$$bad$$meta$$core$$cry$$sab$$flt$$req" ]; then exit 1; fi; \
	echo "lint-layering: ok"

# torture runs the full differential crash/attack matrix via the CLI;
# torture-faults adds the media-fault cells (torn writes, partial ADR
# drains, weak and stuck lines) on top of the clean-crash matrix;
# torture-long widens every axis (minutes, not seconds).
torture:
	$(GO) run ./cmd/ccnvm-torture -seeds 8 -designs all

torture-faults:
	$(GO) run ./cmd/ccnvm-torture -seeds 4 -designs all -attacks none -faultseeds 16

# torture-reboots crashes recovery itself: every interrupted Apply pass
# is struck at its k-th persisted recovery write, re-entered from the
# persisted recovery journal, and the converged image is held to the
# reboot-convergence / no-new-loss / bounded oracles.
torture-reboots:
	$(GO) run ./cmd/ccnvm-torture -seeds 2 -designs all -attacks none -faultseeds 2 -reboots 4

# torture-spares sweeps the finite spare pool from healthy through
# degraded to read-only: pool sizes from 3 down to a single line are
# layered over the weak/stuck fault profiles, and every passing cell is
# classified healed / lost-but-detected / read-only-refused by the
# spare-accounting, remap-consistency and degradation oracles.
torture-spares:
	$(GO) run ./cmd/ccnvm-torture -seeds 2 -designs all -attacks none -spares 3

# torture-guided replaces evenly spaced crash points with the
# ordering-aware enumeration (one point per distinct persist-ordering
# edge cut) and prints the edge-coverage table against evenly spaced
# points of equal budget.
torture-guided:
	$(GO) run ./cmd/ccnvm-torture -guided -seeds 4 -designs all

# torture-kv crashes the KV namespace at every host-write boundary —
# including between a batch frame's payload lines and its commit
# header — for every crash-consistent design, re-crashes recovery
# itself (-reboots), and holds the recovered namespace to the KV
# oracles: acked batches durable, no partial batch ever visible. KV
# cells are ordinary torture cells (workload=kv): the same worker pool,
# shrinker, -json summary and one-line -repro as the trace matrix.
torture-kv:
	$(GO) run ./cmd/ccnvm-torture -kv -seeds 2 -designs all -reboots 2

# torture-compact turns on the compaction axis: a GC pass runs after
# every second acknowledged batch, so the crash sweep lands inside the
# copy loop, between the run flush and the manifest commit, and on the
# manifest slot write itself — with recovery re-crashed on top
# (-reboots) and the compaction oracles (generation intact, no ghost
# resurrection, no lost acked write, reopen idempotent, recovery
# idempotent) holding throughout. A
# failure replays with -repro '...,workload=kv,...,compact=2'.
torture-compact:
	$(GO) run ./cmd/ccnvm-torture -kv -kv-compact 2 -seeds 2 -designs all -reboots 2

torture-long:
	$(GO) test ./internal/torture/ -torture.long -timeout 30m -v

# campaign regenerates the committed durability report: the fixed-seed
# guided campaign with every behavior class, its exemplar repro and exit
# code, the ordering-sabotage self-test, and the edge-coverage table.
campaign:
	$(GO) run ./cmd/ccnvm-torture -campaign docs/status/durability_report.md

# campaign-short re-runs the campaign into a scratch directory and
# asserts the committed report (and its JSON artifact) is byte-identical
# — the report is generated, never hand-edited, and ci keeps it honest.
campaign-short:
	@tmp=$$(mktemp -d) && \
	$(GO) run ./cmd/ccnvm-torture -campaign $$tmp/durability_report.md >/dev/null && \
	cmp docs/status/durability_report.md $$tmp/durability_report.md && \
	cmp docs/status/durability_report.json $$tmp/durability_report.json && \
	rm -rf $$tmp && echo "campaign-short: report reproduces byte-identically"

# kv-smoke is the end-to-end kill-mid-batch drill, run on real
# processes with the race detector on: serve, journal a concurrent
# burst client-side, inject a power failure mid-stream (exit 7),
# restart from the persisted image, verify that no acknowledged batch
# was lost and no partial batch is visible, shut down cleanly (exit 0)
# and recover once more from the clean image.
kv-smoke:
	@GO=$(GO) sh scripts/kv_smoke.sh

# benchmark-check compiles and tests the repo benchmark. benchmark/ is
# a module of its own, so tier1's ./... never sees it, yet it imports
# ccnvm/internal/...: an API change there breaks it silently otherwise.
benchmark-check:
	$(GO) vet -C benchmark . && $(GO) test -C benchmark .

# ci is what a merge must pass.
ci: tier1 vet cross lint-designs lint-layering race fuzz-short vuln torture-reboots torture-spares torture-kv torture-compact campaign-short kv-smoke benchmark-check

# profile captures CPU and heap profiles of a Figure 5 run; inspect with
# `go tool pprof cpu.out`. PROFILE_PARALLEL sets how many simulated
# machines run at once:
#
#	make profile                                   # serial baseline
#	make profile PROFILE_PARALLEL=4                # 4 concurrent machines
#
# Each run carries the pprof labels design and workload. -tagfocus takes
# a regular expression, so design=ccnvm also matches ccnvm-wods and
# ccnvm-ext; anchor it for one design:
#
#	go tool pprof -top -tagfocus 'design=^ccnvm$' cpu.out
PROFILE_PARALLEL ?= 1
profile:
	$(GO) run ./cmd/ccnvm-bench -fig 5 -parallel $(PROFILE_PARALLEL) -cpuprofile cpu.out -memprofile mem.out

# profile-kv captures a CPU profile of the KV serving path:
# BenchmarkServerBatchPut is the kvd assembly over loopback in the repo
# benchmark's kv_put shape (2 connections, batches of 4 fresh-key 64 B
# puts through the wire, kv, store and engine). Inspect with
# `go tool pprof cpu-kv.out`; throughput itself is measured by
# `go run -C benchmark .`. BenchmarkServerGet is the read path in the
# kv_get shape; its 100k-key preload is in the profile too, so read it
# with `go tool pprof -focus serveConn`. BenchmarkReopen is the restart
# path recover_ms times (LoadImage -> Reboot -> kv.Open), one
# sub-benchmark per workload image: Reopen/kv_put (40 000 batches of 4
# fresh-key 64 B puts) and Reopen/kv_get (100 000 128 B keys preloaded
# 16 to a batch); Reopen runs both. One iteration is a whole restart, so
# it runs 10 of them per image, each begun outside the timer with the
# last one's heap handed back to the operating system (as the repo
# benchmark's restarts are), so the load pays a fresh process's page
# faults. Building the image is in the profile
# too, so each restart carries the pprof label restart=reopen, which the
# goroutines it starts (the recovery walk's parts, the scan's verify and
# index stages) inherit; -focus on a function would drop them:
#
#	make profile-kv KV_BENCH=ServerGet
#	make profile-kv KV_BENCH=Reopen/kv_get
#	go tool pprof -top -tagfocus restart=reopen kv.test cpu-kv.out
KV_BENCH ?= ServerBatchPut
ifeq ($(firstword $(subst /, ,$(KV_BENCH))),Reopen)
KV_BENCHTIME = 10x
else
KV_BENCHTIME = 25000x
endif
profile-kv:
	$(GO) test -run '^$$' -bench '$(KV_BENCH)$$' -benchtime $(KV_BENCHTIME) -cpuprofile cpu-kv.out ./internal/kv/

clean:
	rm -f cpu.out mem.out cpu-kv.out kv.test
