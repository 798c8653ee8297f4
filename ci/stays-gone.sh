#!/usr/bin/env bash
# Checks that what earlier changes deleted stays deleted: every row of
# ci/stays-gone.tsv (its header says how a row reads), two checks no row
# can express, and the `(checked by: …)` marks of docs/ARCHITECTURE.md.
# Prints each failed check and exits 1; exits 0 when all hold.
#
#   bash ci/stays-gone.sh [ROOT]    # ROOT: the tree to check (default: this repo)
set -u -o pipefail
shopt -s globstar dotglob
here=$(cd "$(dirname "$0")" && pwd)
cd "${1:-$here/..}" || exit 2
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
fail=0

# Sets `list` to the files a row's paths name.
declare -A under # directory -> the files under it
files() {
  local -a words found=()
  local w f x
  read -ra words <<< "$1"
  for w in "${words[@]}"; do
    [[ $w == !* ]] && continue
    for f in $w; do
      if [[ -d $f ]]; then
        [[ -v "under[$f]" ]] || under[$f]=$(find "$f" -type f)
        [[ -n ${under[$f]} ]] && mapfile -t -O ${#found[@]} found <<< "${under[$f]}"
      elif [[ -f $f ]]; then found+=("$f"); fi
    done
  done
  list=()
  for f in "${found[@]}"; do
    for x in "${words[@]}"; do [[ $x == !* && $f == ${x#!} ]] && continue 2; done
    list+=("$f")
  done
}

# Writes FILE's SCOPE lines to $tmp/SCOPE/FILE, once.
cut_scope() {
  local out=$tmp/$1/$2
  [[ -e $out ]] && return
  mkdir -p "${out%/*}"
  sed '/^#\[cfg(test)\]/,$d' "$2" | if [[ $1 == code-nc ]]; then grep -vE '^\s*//'; else cat; fi > "$out"
}

n=0
while IFS=$'\t' read -r -u 3 name kind pat paths scope limit _witness pr; do
  n=$((n + 1))
  [[ -z $name || $name == \#* ]] && continue
  files "$paths"
  pre=
  if [[ $scope != file ]]; then
    pre=$tmp/$scope/
    for f in "${list[@]}"; do cut_scope "$scope" "$f"; done
  fi
  hits= count=0
  ((${#list[@]})) && hits=$(grep -nH -"$kind" -e "$pat" -- "${list[@]/#/$pre}") && hits=${hits//"$pre"/}
  [[ -n $hits ]] && mapfile -t lines <<< "$hits" && count=${#lines[@]}
  lim=${limit%% *}
  case $lim in
    none) ok=$((count == 0)) ;;
    '<='[0-9]*) ok=$((count <= ${lim#<=})) ;;
    =[0-9]*) ok=$((count == ${lim#=})) ;;
    *) echo "ci/stays-gone.tsv:$n: bad limit '$limit'"; exit 2 ;;
  esac
  if ((ok)) && [[ $limit == *' in '* ]]; then
    want=${limit#* in }
    while IFS=: read -r p line _; do
      header=$(awk -v n="$line" '/^ *(pub(\(crate\))? )?fn /{f=$0} NR==n{print f; exit}' "$pre$p")
      [[ $p == "${want%%:*}" && $header == *"${want#*:}"* ]] || ok=0
    done <<< "$hits"
  fi
  if ((!ok)); then
    echo "ci/stays-gone.tsv:$n: $name (PR $pr): want $limit, found $count"
    [[ -n $hits ]] && sed 's/^/    /' <<< "$hits"
    fail=1
  fi
done 3< "$here/stays-gone.tsv"

# An escalated batch writes the plans its shared pass kept only if the
# write epoch has not moved, so the one `inner.write()` (a row counts
# it) sits in `fn write(&self)` and the epoch moves after it.
every_write_side_bumps_the_epoch() {
  awk '/fn write\(&self\)/{f=1} f{print} f&&/^    }$/{exit}' crates/core/src/handle.rs 2> /dev/null |
    sed -n '/self\.inner\.write()/,$p' | grep -q 'epoch\.fetch_add'
}

# The log's per-page chain state (`tracks`) holds no page bytes, neither
# in the field's type nor in a struct that type names.
the_log_keeps_no_page_copies() {
  local decl t
  decl=$(grep -rhE '^ *tracks: ' crates/wal/src 2> /dev/null | grep -vE '::[a-z_]+\(')
  [[ $(printf '%s\n' "$decl" | grep -c 'tracks:') == 1 ]] || return 1
  for t in $(printf '%s\n' "$decl" | grep -oE '\b[A-Z][A-Za-z0-9_]*\b' | grep -vxE 'HashMap|PageId|Lsn'); do
    decl+=" $(grep -rh -A20 "struct $t\b" crates/*/src 2> /dev/null | sed '/^}/q')"
  done
  ! printf '%s\n' "$decl" | grep -qE 'Box<\[u8\]>|Vec<u8>'
}

for check in every_write_side_bumps_the_epoch the_log_keeps_no_page_copies; do
  name=${check//_/ }
  $check || { echo "ci/stays-gone.sh: ${name^}"; fail=1; }
done

# Each backticked name in a `checked by:` mark is a test fn of the
# workspace; a trailing `*` stands for any test whose name it begins.
if [[ -f docs/ARCHITECTURE.md ]]; then
  tests=$(find crates src tests examples -name '*.rs' -exec awk 'FNR==1{t=0} /#\[test\]/{t=1}
    t && match($0, /fn [A-Za-z0-9_]+/) {print substr($0, RSTART + 3, RLENGTH - 3); t=0}' {} + 2> /dev/null)
  while IFS= read -r mark; do
    if [[ $mark == *'*' ]]; then grep -q "^${mark%\*}" <<< "$tests"; else grep -qx "$mark" <<< "$tests"; fi ||
      { echo "docs/ARCHITECTURE.md: checked by \`$mark\`, which is no test"; fail=1; }
  done < <(tr '\n' ' ' < docs/ARCHITECTURE.md | grep -oE 'checked by:[^)]*' | grep -oE '`[^`]+`' | tr -d '`')
fi
exit $fail
