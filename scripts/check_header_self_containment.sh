#!/usr/bin/env bash
# Compiles every header under src/ and tools/ as a standalone translation
# unit: a header that only builds when its includer happens to pull in the
# right dependencies first is a landmine for API consumers (src/) and for
# the tools and benches that share tools/ headers. Run from the repo root;
# exits non-zero listing every header that fails.
set -u

CXX="${CXX:-c++}"
STD="${STD:-c++20}"
failures=0

tmpdir="$(mktemp -d)"
trap 'rm -rf "${tmpdir}"' EXIT

for header in $(find src tools -name '*.h' | sort); do
  tu="${tmpdir}/tu.cc"
  printf '#include "%s"\n#include "%s"\nint main() { return 0; }\n' \
    "${header}" "${header}" > "${tu}"
  if ! "${CXX}" -std="${STD}" -fsyntax-only -I. "${tu}" 2> "${tmpdir}/err.txt"; then
    echo "NOT SELF-CONTAINED: ${header}"
    sed 's/^/    /' "${tmpdir}/err.txt" | head -15
    failures=$((failures + 1))
  fi
done

if [ "${failures}" -ne 0 ]; then
  echo "${failures} header(s) are not self-contained (or not include-guarded)."
  exit 1
fi
echo "All headers under src/ and tools/ compile standalone."
