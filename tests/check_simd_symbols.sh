#!/usr/bin/env bash
# The SIMD word-backend objects must define no weak standard-library
# symbols.
#
# word_backend_{avx2,avx512,avx512popcnt,neon}.cpp are compiled with their
# own ISA flags (-mavx2, -mavx512f, ...). Any inline function with external
# linkage they instantiate is emitted as a weak (COMDAT) copy, and the
# linker keeps one copy per symbol for the whole binary, so a baseline TU
# could end up running the AVX-512 build of, say, a std::vector destructor
# on a CPU without AVX-512. The kernels keep their scratch in
# word_impl::ScratchWords (defined out of line in the scalar64 TU) for this
# reason; this check keeps it that way.
#
# Registered from CMakeLists.txt as the `check_simd_symbols` ctest.
# Usage: check_simd_symbols.sh <nm-binary> <object>...
# Exits 77 (skipped) when nm cannot be run.
set -euo pipefail

nm_bin="$1"
shift
if ! command -v "${nm_bin}" > /dev/null 2>&1; then
  echo "SKIP: nm not found ('${nm_bin}')"
  exit 77
fi

checked=0
failed=0
for object in "$@"; do
  case "$(basename "${object}")" in
    word_backend_avx2.cpp.o* | word_backend_avx512.cpp.o* | \
    word_backend_avx512popcnt.cpp.o* | word_backend_neon.cpp.o*) ;;
    *) continue ;;
  esac
  checked=$((checked + 1))
  # Defined weak functions (W), weak objects (V) and GNU-unique (u).
  weak="$("${nm_bin}" -C --defined-only "${object}" |
          grep -E '^[0-9a-fA-F]* +[WVu] ' | grep 'std::' || true)"
  if [ -n "${weak}" ]; then
    echo "FAIL: $(basename "${object}") defines weak std:: symbols:" >&2
    echo "${weak}" >&2
    failed=1
  else
    echo "ok: $(basename "${object}")"
  fi
done

if [ "${checked}" -eq 0 ]; then
  echo "FAIL: no SIMD word-backend object among the arguments" >&2
  exit 1
fi
exit "${failed}"
