#!/usr/bin/env sh
# Validate BENCH_<name>.json records against the shape documented in
# docs/BENCH_SCHEMA.json.  CI runs this after the bench-smoke arms; it
# needs only jq, so the assertions below mirror the schema rather than
# invoking a JSON Schema validator.
#
# Usage: check_bench_json.sh FILE [FILE...]
#
# The records given together must agree on hw_threads: docs compare
# arms across records, which only means something on one host.
set -eu

if [ "$#" -lt 1 ]; then
  echo "usage: $0 BENCH_file.json [...]" >&2
  exit 2
fi

status=0
first_hw=""
first_file=""
for f in "$@"; do
  if [ ! -f "$f" ]; then
    echo "FAIL $f: missing" >&2
    status=1
    continue
  fi
  if ! jq -e '
    (.bench | type == "string" and length > 0) and
    (.schema == 1) and
    (.scale | type == "number" and . > 0) and
    (.quick | type == "boolean") and
    (.hw_threads | type == "number" and . >= 1) and
    (.timestamp_unix | type == "number" and . >= 0) and
    (.arms | type == "array" and length > 0) and
    ([.arms[] |
        (.name | type == "string" and length > 0) and
        (.wall_s | type == "number" and . >= 0) and
        (.cpu_s | type == "number" and . >= 0) and
        (.bytes | type == "number" and . >= 0) and
        (.phases | type == "array") and
        ([.phases[]? |
            (.name | type == "string" and length > 0) and
            (.count | type == "number" and . >= 1) and
            (.total_ns | type == "number" and . >= 0)
         ] | all)
     ] | all)
  ' "$f" > /dev/null; then
    echo "FAIL $f: does not match docs/BENCH_SCHEMA.json" >&2
    status=1
    continue
  fi
  # Arm names must be unique or downstream joins silently mis-pair.
  if [ "$(jq -r '[.arms[].name] | length' "$f")" != \
       "$(jq -r '[.arms[].name] | unique | length' "$f")" ]; then
    echo "FAIL $f: duplicate arm names" >&2
    status=1
    continue
  fi
  hw="$(jq -r '.hw_threads' "$f")"
  if [ -z "$first_hw" ]; then
    first_hw="$hw"
    first_file="$f"
  elif [ "$hw" != "$first_hw" ]; then
    echo "FAIL $f: hw_threads $hw, but $first_file has $first_hw" >&2
    status=1
    continue
  fi
  # X10 (bench "crc") must always carry the portable baseline and the
  # zero-page arms, whatever kernels the host CPU offers — they are the
  # denominators every speedup claim divides by — and the crc_combine
  # arm that prices the CRC stitch of encode and restore.
  if [ "$(jq -r '.bench' "$f")" = "crc" ]; then
    if ! jq -e '[.arms[].name] |
        (index("crc_soft_64k") != null) and
        (index("crc_combine") != null) and
        (index("zero_page_scan_allzero") != null) and
        (index("zero_page_scan_dirty") != null)' "$f" > /dev/null; then
      echo "FAIL $f: crc bench missing baseline or crc_combine arms" >&2
      status=1
      continue
    fi
  fi
  # X8 (bench "encode") must carry the storage-sink arms, including the
  # many-small-objects pair that motivates the segment backend — and
  # the segment arm must actually beat the one-file-per-object path.
  if [ "$(jq -r '.bench' "$f")" = "encode" ]; then
    if ! jq -e '[.arms[].name] |
        (index("file_buffered_write") != null) and
        (index("segment_write") != null) and
        (index("smallobj_file") != null) and
        (index("smallobj_segment") != null)' "$f" > /dev/null; then
      echo "FAIL $f: encode bench missing storage-sink arms" >&2
      status=1
      continue
    fi
    if ! jq -e '
        ([.arms[] | select(.name == "smallobj_file")] | first | .wall_s) >
        ([.arms[] | select(.name == "smallobj_segment")] | first | .wall_s)
        ' "$f" > /dev/null; then
      echo "FAIL $f: smallobj_segment did not beat smallobj_file" >&2
      status=1
      continue
    fi
    # Compression must stay cheap next to a raw encode of the same
    # pages: at most 2x on one thread.  Quick records (one small rep)
    # are too noisy to hold to it.
    if ! jq -e '
        .quick or
        (([.arms[] | select(.name == "t1_compress_sync")] | first | .wall_s)
         <= 2 * ([.arms[] | select(.name == "t1_raw_sync")] | first | .wall_s))
        ' "$f" > /dev/null; then
      echo "FAIL $f: t1_compress_sync above 2x t1_raw_sync" >&2
      status=1
      continue
    fi
    # The segment store streams each object into its segment, so the
    # same bytes cost it at most 1.3x what one file per object costs.
    if ! jq -e '
        .quick or
        (([.arms[] | select(.name == "segment_write")] | first | .wall_s)
         <= 1.3 * ([.arms[] | select(.name == "file_buffered_write")] |
                   first | .wall_s))
        ' "$f" > /dev/null; then
      echo "FAIL $f: segment_write above 1.3x file_buffered_write" >&2
      status=1
      continue
    fi
  fi
  # X9 (bench "restore") must carry the file and segment chain arms,
  # and where it has the 1+0 chain (not in quick mode), the planned
  # restore on one thread must be no slower than the serial parser:
  # with nothing superseded, planning must cost nothing.
  if [ "$(jq -r '.bench' "$f")" = "restore" ]; then
    if ! jq -e '[.arms[].name] |
        (any(startswith("file_chain"))) and
        (any(startswith("segment_chain")))' "$f" > /dev/null; then
      echo "FAIL $f: restore bench missing on-disk chain arms" >&2
      status=1
      continue
    fi
    if ! jq -e '
        ([.arms[] | select(.name == "chain1+0_serial")] | first) as $s |
        ([.arms[] | select(.name == "chain1+0_planned_1t")] | first) as $p |
        ($s == null and $p == null) or
        ($s != null and $p != null and $p.wall_s <= $s.wall_s)
        ' "$f" > /dev/null; then
      echo "FAIL $f: chain1+0_planned_1t slower than chain1+0_serial" >&2
      status=1
      continue
    fi
  fi
  # X11 (bench "net") must carry the segment-served arms.
  if [ "$(jq -r '.bench' "$f")" = "net" ]; then
    if ! jq -e '[.arms[].name] |
        (any(startswith("segment_put"))) and
        (any(startswith("segment_get")))' "$f" > /dev/null; then
      echo "FAIL $f: net bench missing segment-served arms" >&2
      status=1
      continue
    fi
  fi
  echo "OK   $f ($(jq -r '.arms | length' "$f") arms)"
done
exit $status
