#!/usr/bin/env bash
# clang-tidy driver over the CMake compile database.
#
# Usage:
#   tools/run_tidy.sh [--all] [--build-dir DIR] [--base REF]
#
#   default      lint only files changed vs --base (origin/main if present,
#                else HEAD~1) — the fast path for PR branches
#   --all        lint every first-party translation unit (CI runs this on
#                pushes to main)
#   --build-dir  build tree holding compile_commands.json
#                (default: build; CMAKE_EXPORT_COMPILE_COMMANDS is on by
#                default in CMakeLists.txt)
#
# Exits 0 with a notice when clang-tidy is not installed, so local
# Release-only environments are not blocked; CI installs clang-tidy and
# treats any diagnostic as an error (.clang-tidy sets WarningsAsErrors).
set -euo pipefail

repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build_dir="${repo_root}/build"
mode="changed"
base_ref=""

while [[ $# -gt 0 ]]; do
  case "$1" in
    --all) mode="all"; shift ;;
    --build-dir) build_dir="$2"; shift 2 ;;
    --base) base_ref="$2"; shift 2 ;;
    -h|--help) sed -n '2,18p' "$0"; exit 0 ;;
    *) echo "run_tidy.sh: unknown argument '$1'" >&2; exit 2 ;;
  esac
done

tidy_bin="${CLANG_TIDY:-clang-tidy}"
if ! command -v "${tidy_bin}" >/dev/null 2>&1; then
  echo "run_tidy.sh: ${tidy_bin} not found; skipping (CI runs the real check)"
  exit 0
fi

if [[ ! -f "${build_dir}/compile_commands.json" ]]; then
  echo "run_tidy.sh: ${build_dir}/compile_commands.json missing." >&2
  echo "Configure first: cmake -B '${build_dir}' (export is on by default)." >&2
  exit 2
fi

cd "${repo_root}"

# First-party translation units only; _deps/ (GoogleTest) is not ours.
list_all() {
  git ls-files 'src/**/*.cpp' 'reference/*.cpp' 'tests/*.cpp' 'bench/*.cpp' \
    'examples/*.cpp'
}

list_changed() {
  local base="${base_ref}"
  if [[ -z "${base}" ]]; then
    if git rev-parse --verify -q origin/main >/dev/null; then
      base="$(git merge-base HEAD origin/main)"
    else
      base="HEAD~1"
    fi
  fi
  # Changed headers pull in every TU that includes them; approximate with a
  # grep over includes so a header-only change still gets its users linted.
  local files headers
  files="$(git diff --name-only --diff-filter=d "${base}" -- \
             'src/**/*.cpp' 'reference/*.cpp' 'tests/*.cpp' 'bench/*.cpp' \
             'examples/*.cpp')"
  headers="$(git diff --name-only --diff-filter=d "${base}" -- \
               'src/**/*.h' 'reference/*.h' 'tests/*.h')"
  if [[ -n "${headers}" ]]; then
    local header users
    while IFS= read -r header; do
      [[ -z "${header}" ]] && continue
      users="$(grep -rl --include='*.cpp' -F "$(basename "${header}")" \
                 src reference tests bench examples 2>/dev/null || true)"
      files="$(printf '%s\n%s' "${files}" "${users}")"
    done <<< "${headers}"
  fi
  printf '%s\n' "${files}" | sed '/^$/d' | sort -u
}

if [[ "${mode}" == "all" ]]; then
  mapfile -t targets < <(list_all)
else
  mapfile -t targets < <(list_changed)
fi

if [[ ${#targets[@]} -eq 0 ]]; then
  echo "run_tidy.sh: no first-party sources to lint (mode=${mode})"
  exit 0
fi

echo "run_tidy.sh: linting ${#targets[@]} file(s) (mode=${mode})"
status=0
for tu in "${targets[@]}"; do
  # Keep going after a failure so one run reports every offending file.
  if ! "${tidy_bin}" -p "${build_dir}" --quiet "${tu}"; then
    status=1
    echo "run_tidy.sh: FAILED ${tu}" >&2
  fi
done
exit "${status}"
