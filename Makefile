# Developer entry points; CI runs the same commands (see
# .github/workflows/ci.yml).

.PHONY: build test lint fmt bench stress

build:
	go build ./...

test:
	go test ./...

# The repository's own static-analysis suite (internal/lint, run by CI): the
# determinism analyzer plus //ccsvm: directive hygiene. See ARCHITECTURE.md
# "Static enforcement".
lint:
	go vet ./...
	go run ./cmd/ccsvm-lint ./...

fmt:
	gofmt -w $$(git ls-files '*.go')

bench:
	go run ./cmd/ccsvm-bench

stress:
	go run ./cmd/ccsvm-stress -seed 1 -ops 100000 -preset ccsvm-base
