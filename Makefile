# Developer entry points; CI runs the same commands (see
# .github/workflows/ci.yml).

.PHONY: build test lint lint-report fmt bench stress

build:
	go build ./...

test:
	go test ./...

# The repository's own static-analysis suite (internal/lint, run by CI):
# determinism, pool-ownership and hot-path invariants, plus //ccsvm:
# directive hygiene. See ARCHITECTURE.md "Static enforcement".
lint:
	go vet ./...
	go run ./cmd/ccsvm-lint ./...

# Machine-readable lint reports (JSON and SARIF 2.1.0) under lint-reports/.
# Both documents are always written — a clean run produces valid empty
# reports — and the target fails, after writing both, if there are findings,
# so CI can gate on it and still upload the artifacts.
lint-report:
	mkdir -p lint-reports
	status=0; \
	go run ./cmd/ccsvm-lint -format json ./... > lint-reports/ccsvm-lint.json || status=$$?; \
	go run ./cmd/ccsvm-lint -format sarif ./... > lint-reports/ccsvm-lint.sarif || status=$$?; \
	exit $$status

fmt:
	gofmt -w $$(git ls-files '*.go')

bench:
	go run ./cmd/ccsvm-bench

stress:
	go run ./cmd/ccsvm-stress -seed 1 -ops 100000 -preset ccsvm-base
