# Local targets mirror .github/workflows/ci.yml exactly: `make ci` is the
# same gate CI applies.

GO ?= go

# The packages whose exported surface is pinned in API.txt and guarded in
# CI (make apicheck); TestDocRefs requires a doc comment on each of their
# exported symbols. Packages under internal/ are not pinned in API.txt, but
# TestPublicNamesHaveCallers audits them for callers: an exported internal
# name must be used outside its own package.
API_PKGS = ./tinygroups ./tinygroups/scenario ./tinygroups/cluster

# The port chaos-smoke tortures its daemon on, clear of the daemon's
# default 8477 so a locally running tinygroupsd is never collateral damage.
CHAOS_PORT ?= 8479
CHAOS_ADDR = 127.0.0.1:$(CHAOS_PORT)

# cluster-smoke's port block: the router plus its two shard daemons.
CLUSTER_PORT ?= 8480
CLUSTER_ROUTER_ADDR = 127.0.0.1:$(CLUSTER_PORT)
CLUSTER_SHARD0_ADDR = 127.0.0.1:$(shell expr $(CLUSTER_PORT) + 1)
CLUSTER_SHARD1_ADDR = 127.0.0.1:$(shell expr $(CLUSTER_PORT) + 2)

.PHONY: build test cover bench bench-smoke lint api apicheck chaos-smoke cluster-smoke fuzz-short ci

build:
	$(GO) build ./...

test:
	$(GO) test -race ./...

# cover reruns the test suite with coverage accounting, prints the
# per-package and total percentages, and fails when the total statement
# coverage falls below the floor: the total measured when the floor was
# last set, rounded down to 0.5. Raise the floor as coverage rises; never
# lower it. CI runs this target and uploads coverage.out.
cover:
	$(GO) test -coverprofile=coverage.out -covermode=atomic ./...
	@floor=90.0; total=$$($(GO) tool cover -func=coverage.out | tail -1 | awk '{ sub("%", "", $$NF); print $$NF }'); \
	echo "total statement coverage $$total% (floor $$floor%)"; \
	if ! awk -v t="$$total" -v f="$$floor" 'BEGIN { exit !(t >= f) }'; then \
		echo "coverage $$total% is below the $$floor% floor" >&2; exit 1; \
	fi

# fuzz-short runs each snapshot/op-log decoder fuzz target briefly (the
# committed seed corpora plus a few seconds of mutation) — the CI-sized
# slice of the "decoders never panic" guarantee. Longer local runs:
# go test -fuzz FuzzDecodeSnapshot -fuzztime 5m ./internal/snapshot
fuzz-short:
	$(GO) test -fuzz FuzzDecodeSnapshot -fuzztime 5s -run '^$$' ./internal/snapshot
	$(GO) test -fuzz FuzzDecodeLog -fuzztime 5s -run '^$$' ./internal/snapshot

# bench runs every root-module Go benchmark once: a smoke of the per-
# substrate profiling benchmarks (go test -bench X -cpuprofile ...). The
# measured benchmark is the bench/ module: go run -C bench .
bench:
	$(GO) test -run=NONE -bench=. -benchtime=1x ./...

# bench-smoke builds, vets, tests and smoke-runs the nested bench/ module —
# the program BENCHMARK.json names. It has its own go.mod, so `./...`
# skips it, yet it imports internal/serve and decodes the daemon's
# /metrics: this is the gate that catches a change here breaking it.
bench-smoke:
	cd bench && $(GO) vet . && $(GO) test . && $(GO) run . -smoke

lint:
	$(GO) vet ./...
	@out=$$(gofmt -l .); \
	if [ -n "$$out" ]; then \
		echo "files need gofmt:"; echo "$$out"; exit 1; \
	fi

# api regenerates the checked-in export listing of the stable packages.
# Run it (and review the diff) whenever the public surface changes.
api:
	@{ for p in $(API_PKGS); do echo "# $$p"; $(GO) doc -short "$$p"; echo; done; } > API.txt
	@echo "wrote API.txt"

# apicheck fails when the exported surface drifted from API.txt — the CI
# guard that makes every public-API change an explicit, reviewed diff.
apicheck:
	@{ for p in $(API_PKGS); do echo "# $$p"; $(GO) doc -short "$$p"; echo; done; } > API.txt.tmp; \
	if ! diff -u API.txt API.txt.tmp; then \
		rm -f API.txt.tmp; \
		echo "public API surface drifted — run 'make api' and commit the diff" >&2; exit 1; \
	fi; \
	rm -f API.txt.tmp

# chaos-smoke gates the daemon's whole life with the real binary: cmd/chaos
# boots it on a data dir, drives the three adversarial workloads, SIGKILLs
# it mid-epoch, restarts it on the same dir, requires a disk recovery
# (recovered=true, the pre-kill fingerprint, every acknowledged key) and a
# friendly tail at >= 99% lookup success, then a clean SIGTERM drain — the
# kill/restart drill of ARCHITECTURE.md's fault model. A wedged phase trips
# the harness watchdog, which SIGQUITs the daemon for a goroutine dump
# before failing.
chaos-smoke:
	@set -e; \
	tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	$(GO) build -o "$$tmp/tinygroupsd" ./cmd/tinygroupsd; \
	$(GO) build -o "$$tmp/chaos" ./cmd/chaos; \
	"$$tmp/chaos" -daemon "$$tmp/tinygroupsd" -addr $(CHAOS_ADDR) -n 512 -ops 300

# cluster-smoke gates cluster mode end to end with the real binaries: two
# replica daemons (-shard-index/-shard-count label them) and a
# tinygroupsrouter boot; every curl below must answer 200 — router /healthz
# "ok" (the replicas agree on epoch and fingerprint), a coordinated
# two-phase advance, a batch put written to both replicas, a batch lookup
# through the router, a GET of a put key sent to each replica directly,
# and /healthz "ok" again — and all three processes drain cleanly on
# SIGTERM (each exit status is an assertion).
cluster-smoke:
	@set -e; \
	tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	$(GO) build -o "$$tmp/tinygroupsd" ./cmd/tinygroupsd; \
	$(GO) build -o "$$tmp/tinygroupsrouter" ./cmd/tinygroupsrouter; \
	"$$tmp/tinygroupsd" -addr $(CLUSTER_SHARD0_ADDR) -n 512 -shard-index 0 -shard-count 2 & s0=$$!; \
	"$$tmp/tinygroupsd" -addr $(CLUSTER_SHARD1_ADDR) -n 512 -shard-index 1 -shard-count 2 & s1=$$!; \
	"$$tmp/tinygroupsrouter" -addr $(CLUSTER_ROUTER_ADDR) \
		-shards http://$(CLUSTER_SHARD0_ADDR),http://$(CLUSTER_SHARD1_ADDR) & rp=$$!; \
	trap 'kill $$rp $$s0 $$s1 2>/dev/null || true; rm -rf "$$tmp"' EXIT; \
	router=http://$(CLUSTER_ROUTER_ADDR); \
	for i in $$(seq 100); do curl -fs $$router/healthz > /dev/null && break; sleep 0.1; done; \
	curl -fsS $$router/healthz | grep -q '"status":"ok"'; \
	curl -fsS -X POST $$router/v1/epoch/advance > /dev/null; \
	curl -fsS -X POST $$router/v1/put/batch \
		-d '{"pairs":[{"key":"a","value":"MQ=="},{"key":"b","value":"Mg=="},{"key":"c","value":"Mw=="},{"key":"d","value":"NA=="}]}' > /dev/null; \
	curl -fsS -X POST $$router/v1/lookup/batch -d '{"keys":["a","b","c","d"]}' > /dev/null; \
	curl -fsS "http://$(CLUSTER_SHARD0_ADDR)/v1/get?key=a" > /dev/null; \
	curl -fsS "http://$(CLUSTER_SHARD1_ADDR)/v1/get?key=a" > /dev/null; \
	curl -fsS $$router/healthz | grep -q '"status":"ok"'; \
	kill -TERM $$rp $$s0 $$s1; \
	wait $$rp; wait $$s0; wait $$s1; \
	echo "cluster-smoke: clean router + 2-shard exit"

ci: build lint apicheck test cover fuzz-short chaos-smoke cluster-smoke bench bench-smoke
