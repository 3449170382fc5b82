#!/usr/bin/env bash
# Mutant registry: proof that the workspace's checks can fail. Each
# scripts/mutants/*.patch is a deliberately broken change whose first line
# names the one command that must catch it:
#
#   # must-fail: cargo clippy --workspace --all-targets -- -D warnings
#
# The script checks HEAD out into one scratch `git worktree` and first
# requires every named command to pass there. Then, for each patch, it
# applies it with plain `git apply`, runs the command, requires it to
# fail, and resets the worktree before the next patch. All runs share one
# target directory. It exits non-zero if any mutant does not apply or
# survives (its command passes). Too slow for tier-1: run it in any
# change that touches a check, from anywhere inside the repository. The
# worktree and target directory live under ${TMPDIR:-/tmp} and are removed
# on exit.
set -euo pipefail
repo="$(cd "$(dirname "$0")/.." && pwd)"
scratch="$(mktemp -d "${TMPDIR:-/tmp}/ulc-mutants.XXXXXX")"
wt="$scratch/worktree"
export CARGO_TARGET_DIR="$scratch/target"
cleanup() {
  git -C "$repo" worktree remove --force "$wt" 2>/dev/null || true
  git -C "$repo" worktree prune
  rm -rf "$scratch"
}
trap cleanup EXIT
git -C "$repo" worktree add --quiet --detach "$wt" HEAD

patches=("$repo"/scripts/mutants/*.patch)

# A command that already fails on HEAD would "catch" every mutant.
mapfile -t cmds < <(sed -s -n '1s/^# must-fail: //p' "${patches[@]}" | sort -u)
for cmd in "${cmds[@]}"; do
  if ! (cd "$wt" && bash -c "$cmd") >"$scratch/head.log" 2>&1; then
    tail -n 20 "$scratch/head.log" >&2
    echo "mutants: \`$cmd\` already fails on HEAD" >&2
    exit 1
  fi
done

caught=0
survivors=()
for patch in "${patches[@]}"; do
  name="$(basename "$patch" .patch)"
  cmd="$(sed -n '1s/^# must-fail: //p' "$patch")"
  if [[ -z "$cmd" ]]; then
    echo "mutants: BAD      $name: first line is not '# must-fail: <command>'"
    survivors+=("$name")
    continue
  fi
  if ! git -C "$wt" apply "$patch"; then
    echo "mutants: BAD      $name: does not apply to HEAD"
    survivors+=("$name")
    continue
  fi
  log="$scratch/$name.log"
  if (cd "$wt" && bash -c "$cmd") >"$log" 2>&1; then
    echo "mutants: SURVIVED $name: \`$cmd\` passed"
    survivors+=("$name")
  else
    # The first diagnostic says which check caught it.
    why="$(grep -m1 -E '^(error|warning|Diff in)' "$log" || tail -n1 "$log")"
    echo "mutants: caught   $name: $why"
    caught=$((caught + 1))
  fi
  git -C "$wt" reset --quiet --hard HEAD
  git -C "$wt" clean --quiet -fd
done

echo "mutants: $caught of ${#patches[@]} caught"
if [[ ${#survivors[@]} -gt 0 ]]; then
  echo "mutants: not caught: ${survivors[*]}" >&2
  exit 1
fi
