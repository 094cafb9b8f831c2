#!/bin/sh
# The command of BENCHMARK.json: build rda-benchmark (release) and run it with
# the arguments given. Run from the repo root: sh benchmark/run.sh --all
#
# The engine crates name four crates.io packages. Where cargo can resolve them
# without a network (a host that fetched them once), the benchmark is built
# with them, as the repo ships. Where it cannot, offline.toml patches in the
# stand-ins under stubs/. The first line of a run's output says which.
manifest=benchmark/Cargo.toml
patch=
RDA_BENCHMARK_DEPS=registry
if ! cargo metadata --offline --format-version 1 --manifest-path "$manifest" >/dev/null 2>&1; then
    patch="--config benchmark/offline.toml"
    RDA_BENCHMARK_DEPS=stubs
fi
export RDA_BENCHMARK_DEPS
exec cargo run --release --offline --quiet $patch --manifest-path "$manifest" -- "$@"
