#!/usr/bin/env bash
# The CI steps, one function each; .github/workflows/tests.yml runs them one step at a time.
#
#   scripts/ci.sh                  every check in order, offline
#   scripts/ci.sh <step> [<arg>]   one step, e.g. scripts/ci.sh bench-smoke 1
#
# Only the two install steps need the network: `install` (pip, the package and its test
# extras) and `install-numpy <version>` (the numpy 1.24 job).  Every other step runs offline.
# A single step runs the installed `wordsums` console script, so `installed-script` fails
# when `pip install` left no entry point.  The full run alone, meant for a checkout that
# was never installed, falls back to a shim that runs the package from ./src.
set -euo pipefail
cd "$(dirname "$0")/.."

install() {
  python -m pip install --upgrade pip setuptools
  pip install -e ".[test]" --no-build-isolation
}

install-numpy() {
  pip install "numpy==$1"
}

tests() {
  PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} python -m pytest -q --continue-on-collection-errors
}

installed-script() {
  wordsums anchor "0=0,4;1=1,3;2=2,2"
  wordsums profile "contract:base=(thm11:k=1);ivals=arith:5,9,3" -L 2000 --n-max 3
  # values that begin with '-' and a digit: a morphism spec and a negative slope
  wordsums anchor "-1=-1,3;1=1,1;3=3,-1"
  wordsums chi "periodic:-1,0" --slope -1/2 -L 6
  # a refusal of the prelude, which exits before the package loads numpy
  local status=0
  wordsums profile sec24 -L 1500000 || status=$?
  test "$status" -eq 2
}

fixed-point-fills() {
  # fixed points with bounded or slowly growing lags fill 1e6 symbols: each takes well
  # under a second in chunks; a Python step per symbol would time out
  timeout 60 wordsums profile "morphic:0=0,1;1=1;seed=0" -L 1000000 --n-max 1
  timeout 60 wordsums profile "morphic:0=0,1,2;1=2;2=1;seed=0" -L 1000000 --n-max 1
  timeout 60 wordsums profile "morphic:0=0,1;1=1,2;2=2;seed=0" -L 1000000 --n-max 1
}

power-free() {
  # Dekking's abelian-cube-free ternary word and the additive-cube-free word of
  # Cassaigne, Currie, Schaeffer and Shallit, whose chi coloring at slope 1 therefore holds
  # no anchored cube either: each full scan must exit 1, not found
  local status=0
  timeout 60 wordsums powers "morphic:0=0,0,1,2;1=1,1,2;2=0,2,2;seed=0" --k 3 --mu "mu:0=1,0,0;1=0,1,0;2=0,0,1" -L 20000 || status=$?
  test "$status" -eq 1
  status=0
  timeout 60 wordsums powers "morphic:0=0,3;1=4,3;3=1;4=0,1;seed=0" --k 3 -L 20000 || status=$?
  test "$status" -eq 1
  status=0
  timeout 60 wordsums powers "morphic:0=0,3;1=4,3;3=1;4=0,1;seed=0" --k 3 --slope 1/1 -L 20000 || status=$?
  test "$status" -eq 1
}

demos() {
  for f in demos/0*.py; do python "$f"; done
}

bench-smoke() {
  # $1 is 0 or 1: tracing off or on; the run's last line must read correct with no failure
  local out=bench-smoke.out
  if [ "$1" = 1 ]; then out=bench-smoke-traced.out; fi
  python3 bench/run.py --workload all --seed 7 --seconds 1 --trace "$1" > "$out"
  tail -n 1 "$out" | python3 -c '
import json, sys
r = json.loads(sys.stdin.read())
sys.exit(not (r["correct"] is True and r["failed"] == 0))'
}

if [ $# -gt 0 ]; then
  "$@"
else
  if ! command -v wordsums > /dev/null; then
    shim=$(mktemp -d)
    trap 'rm -rf "$shim"' EXIT
    printf '#!/bin/sh\nexec python -m wordsums "$@"\n' > "$shim/wordsums"
    chmod +x "$shim/wordsums"
    export PATH="$shim:$PATH" PYTHONPATH="$PWD/src${PYTHONPATH:+:$PYTHONPATH}"
  fi
  for step in tests installed-script fixed-point-fills power-free demos; do
    echo "== $step" >&2
    "$step"
  done
  echo "== bench-smoke" >&2
  bench-smoke 0
  echo "== bench-smoke traced" >&2
  bench-smoke 1
fi
