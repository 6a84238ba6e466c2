# Convenience targets; scripts/ci.sh is the authoritative gate.

.PHONY: all build test race vet fuzz ci

all: ci

build:
	go build ./...

vet:
	go vet ./...

test:
	go test ./...

race:
	go test -race ./...

# Short fuzz pass over the IR parser (satellite of the resilience work).
fuzz:
	go test -fuzz FuzzParse -fuzztime 30s ./internal/irtext/

ci:
	./scripts/ci.sh
