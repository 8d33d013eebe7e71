.PHONY: all build test bench bench-quick check clean

all: build

build:
	dune build

test:
	dune runtest

bench:
	dune exec bench/main.exe

# quick-mode solver-kernel smoke (LP, LU, B&B and tier-1 restore rows);
# writes BENCH_kernels.json
bench-quick:
	dune exec bench/main.exe -- --quick kernels

# build + tests + quick kernel-bench smoke; the pre-merge gate
check:
	sh scripts/check.sh

clean:
	dune clean
