# Local developer entry points, kept in lockstep with .github/workflows/ci.yml
# so `make ci` reproduces exactly what the gate runs.

GO ?= go

.PHONY: build test race lint lint-fixtures vet fmt-check perfbench-test chaos chaos-recover bench-lookup bench-build bench-recover bench-snapshot bench-serve serve-smoke property fuzz cover ci

build:
	$(GO) build ./...

test:
	$(GO) test -count=1 ./...

## race: the -race gate CI runs; -short skips the heavyweight end-to-end
## core tests (guarded with testing.Short) to keep it fast.
race:
	$(GO) test -race -short -count=1 ./...

## lint: the project-specific static analyzers (see internal/lint and the
## "Concurrency invariants" and "Type-aware analyzers" sections of
## DESIGN.md).
lint:
	$(GO) run ./cmd/reptile-lint ./...

## lint-fixtures: only the analyzer suite's own golden-fixture tests — each
## analyzer against its seeded-violation fixtures, the directive audit, and
## the inventory pin. Fast enough to run on every analyzer edit.
lint-fixtures:
	$(GO) test -count=1 -run 'Golden|Inventory|Allow|FollowsCalls|PathScoping' ./internal/lint/

vet:
	$(GO) vet ./...

## fmt-check: fail on any gofmt drift outside testdata/ (the lint fixtures
## there are malformed on purpose).
fmt-check:
	@out=$$(gofmt -l . | grep -v '/testdata/' || true); \
	if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

## perfbench-test: vet and test the benchmark program, a nested module that
## ./... at the root does not reach.
perfbench-test:
	cd perfbench && $(GO) vet ./... && $(GO) test -count=1 ./...

## chaos: the fault-injection gate — the transport/core chaos suite under
## the race detector, repeated across a small seed matrix (each extra seed
## extends the benign-invariance sweep via REPTILE_CHAOS_SEED).
CHAOS_SEEDS ?= 11 12
chaos:
	@for seed in $(CHAOS_SEEDS); do \
		echo "chaos seed $$seed"; \
		REPTILE_CHAOS_SEED=$$seed $(GO) test -race -short -count=1 \
			-run 'Chaos|Abort|Peer|Corrupt|Heartbeat|Failure' \
			./internal/transport/ ./internal/core/ || exit 1; \
	done

## chaos-recover: the rank-failure recovery gate — replica failover,
## re-replication, estate redistribution, work stealing, and idle-death
## attribution under the race detector, across the same seed matrix as the
## chaos gate (each seed shifts the injected timing around the crash).
chaos-recover:
	@for seed in $(CHAOS_SEEDS); do \
		echo "chaos-recover seed $$seed"; \
		REPTILE_CHAOS_SEED=$$seed $(GO) test -race -count=1 \
			-run 'Recover|Steal|IdleDeath|FailPeer|ExportImport|CrashPhase' \
			./internal/transport/ ./internal/msgplane/ ./internal/spectrum/ ./internal/core/ || exit 1; \
	done

## bench-lookup: the remote-lookup batching benchmark — correction-phase
## messages and bytes per read for the unbatched protocol vs batch frames of
## 8 and 32 ids (with and without a worker pool), written machine-readable.
bench-lookup:
	$(GO) run ./cmd/reptile-bench -exp lookup -scale 0.05 -rankdiv 16 -maxranks 8 -json BENCH_lookup.json

## bench-build: the spectrum-construction benchmark — extraction-worker
## sweep (wall time, memory, output identity) plus the frozen-store layout
## comparison (packed vs hash vs sorted vs cache-aware) at equal entries.
bench-build:
	$(GO) run ./cmd/reptile-bench -exp build -scale 0.05 -rankdiv 16 -maxranks 8 -json BENCH_build.json

## bench-recover: the fault-tolerance benchmark — R=2 replica overhead on a
## fault-free run (memory, exchange bytes, wall time) and a seeded mid-
## correction crash recovered to byte-identical output, vs the no-replica
## baseline.
bench-recover:
	$(GO) run ./cmd/reptile-bench -exp recover -scale 0.05 -rankdiv 16 -maxranks 8 -json BENCH_recover.json

## bench-snapshot: the spectrum-snapshot cache benchmark — cold build vs
## warm load over proc and TCP transports, with the >=5x load-speedup and
## byte-identical-output bars enforced inside the experiment, plus disk
## bytes per entry of the near-zero-parse format.
bench-snapshot:
	$(GO) run ./cmd/reptile-bench -exp snapshot -scale 0.05 -rankdiv 16 -maxranks 8 -json BENCH_snapshot.json

## bench-serve: the resident-service benchmark — concurrent client jobs
## against one shared frozen spectrum vs per-job batch runs, with the >=2x
## aggregate-throughput and byte-identical-output bars enforced inside the
## experiment, plus session latency quantiles (p50/p99).
bench-serve:
	$(GO) run ./cmd/reptile-bench -exp serve -scale 0.05 -rankdiv 16 -maxranks 8 -json BENCH_serve.json

## serve-smoke: end-to-end service smoke — simulate a small dataset, start
## reptile-serve, wait for the front door, run two concurrent clients, drain
## with SIGINT, and require every client's output byte-identical to a batch
## reptile-correct run on the same input.
serve-smoke:
	@set -e; dir=$$(mktemp -d); trap 'rm -rf "$$dir"' EXIT; \
	port=$$((20000 + $$$$ % 20000)); \
	$(GO) build -o $$dir/reptile-serve ./cmd/reptile-serve; \
	$(GO) build -o $$dir/reptile-correct ./cmd/reptile-correct; \
	$(GO) run ./cmd/readsim -preset ecoli -scale 0.02 -out $$dir -name smoke; \
	$$dir/reptile-correct -fasta $$dir/smoke.fa -qual $$dir/smoke.qual -np 2 -out $$dir/batch; \
	$$dir/reptile-serve -fasta $$dir/smoke.fa -qual $$dir/smoke.qual -np 2 -addr 127.0.0.1:$$port & srv=$$!; \
	ok=0; for i in $$(seq 1 60); do \
		if $$dir/reptile-serve -client -addr 127.0.0.1:$$port -tenant probe \
			-fasta $$dir/smoke.fa -qual $$dir/smoke.qual -out $$dir/probe >/dev/null 2>&1; then ok=1; break; fi; \
		sleep 0.25; done; \
	[ $$ok -eq 1 ] || { echo "serve-smoke: server never came up"; kill $$srv 2>/dev/null; exit 1; }; \
	$$dir/reptile-serve -client -addr 127.0.0.1:$$port -tenant smoke-a \
		-fasta $$dir/smoke.fa -qual $$dir/smoke.qual -out $$dir/c1 & c1=$$!; \
	$$dir/reptile-serve -client -addr 127.0.0.1:$$port -tenant smoke-b \
		-fasta $$dir/smoke.fa -qual $$dir/smoke.qual -out $$dir/c2 & c2=$$!; \
	wait $$c1; wait $$c2; \
	kill -INT $$srv; wait $$srv; \
	cmp $$dir/batch.fa $$dir/c1.fa; cmp $$dir/batch.qual $$dir/c1.qual; \
	cmp $$dir/batch.fa $$dir/c2.fa; cmp $$dir/batch.qual $$dir/c2.qual; \
	echo "serve-smoke: 2 concurrent clients byte-identical to the batch run"

## property: the randomized/fuzz-seeded equivalence suites in short mode —
## packed-vs-hash store equivalence, freeze invariants, and the batched
## lookup equivalence matrix.
property:
	$(GO) test -short -count=1 -run 'Packed|Freeze|Frozen|Batched' ./internal/spectrum/ ./internal/core/

## fuzz: the wire- and snapshot-decoder fuzz targets — each runs briefly
## past its golden seed corpus so CI catches decode panics and round-trip
## drift without turning into an open-ended campaign. Entries are
## package:target pairs so targets can live in any package.
FUZZ_TIME ?= 10s
FUZZ_TARGETS ?= \
	./internal/core/:FuzzDecodeBatchReq \
	./internal/core/:FuzzDecodeBatchResp \
	./internal/core/:FuzzBatchReqDeltaCodec \
	./internal/core/:FuzzBatchRespVarintCodec \
	./internal/core/:FuzzSpecEntryCodec \
	./internal/core/:FuzzDecodeAbortInfo \
	./internal/snapshot/:FuzzSnapshotDecode
fuzz:
	@for spec in $(FUZZ_TARGETS); do \
		pkg=$${spec%%:*}; target=$${spec##*:}; \
		echo "fuzz $$pkg $$target ($(FUZZ_TIME))"; \
		$(GO) test -run '^$$' -fuzz "^$$target$$" -fuzztime $(FUZZ_TIME) $$pkg || exit 1; \
	done

## cover: the statement-coverage floor on the protocol-bearing packages —
## the wire format plus message plane must not drift below COVER_MIN.
COVER_MIN ?= 70
cover:
	@for pkg in ./internal/core/ ./internal/msgplane/; do \
		line=$$($(GO) test -count=1 -cover $$pkg | tee /dev/stderr | grep -o 'coverage: [0-9.]*%') || exit 1; \
		pct=$$(echo $$line | sed 's/coverage: //; s/%//; s/\..*//'); \
		if [ "$$pct" -lt "$(COVER_MIN)" ]; then \
			echo "coverage $$pct% for $$pkg is below the $(COVER_MIN)% floor"; exit 1; \
		fi; \
	done

ci: build vet fmt-check lint test perfbench-test race chaos chaos-recover property cover fuzz bench-build bench-lookup bench-snapshot bench-serve serve-smoke
