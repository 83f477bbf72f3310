# CI smoke for the JSON-emitting gbench binaries: run each in quick mode
# (HDSM_BENCH_FAST=1 comes from the test's ENVIRONMENT) and check the
# BENCH_*.json artifact exists and is well-formed.
#
# Invoked as:
#   cmake -DBENCH_DIR=<dir-with-binaries> -P bench_smoke.cmake
#
# The benches whose JSON CI checks.  Each run gets an explicit
# --benchmark_out, so a bench with a plain BENCHMARK_MAIN() can be listed.
set(SMOKE_BINARIES bench_data_plane bench_reliability_overhead
    bench_obs_overhead bench_reactor
    bench_replication bench_kv bench_codec bench_micro_trap)

if(NOT DEFINED BENCH_DIR)
  message(FATAL_ERROR "bench_smoke: pass -DBENCH_DIR=<dir>")
endif()

# bench_obs_overhead's side artifacts — removed up front so a stale copy
# from a previous run can't satisfy the checks below.
file(REMOVE "${BENCH_DIR}/BENCH_obs_trace.json"
     "${BENCH_DIR}/BENCH_obs_metrics.json")

foreach(bin IN LISTS SMOKE_BINARIES)
  # bench_data_plane -> BENCH_data_plane.json (matches the name the binary
  # would default on its own; passed explicitly so binaries without a
  # default-out main still emit one).
  string(REGEX REPLACE "^bench_" "" stem "${bin}")
  set(artifact "${BENCH_DIR}/BENCH_${stem}.json")
  file(REMOVE "${artifact}")

  execute_process(
    COMMAND "${BENCH_DIR}/${bin}" --benchmark_min_time=0.01
            "--benchmark_out=${artifact}" --benchmark_out_format=json
    WORKING_DIRECTORY "${BENCH_DIR}"
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "bench_smoke: ${bin} exited ${rc}\n${out}\n${err}")
  endif()

  if(NOT EXISTS "${artifact}")
    message(FATAL_ERROR "bench_smoke: ${bin} did not write ${artifact}")
  endif()
  file(READ "${artifact}" json)
  string(LENGTH "${json}" json_len)
  if(json_len EQUAL 0)
    message(FATAL_ERROR "bench_smoke: ${artifact} is empty")
  endif()

  if(CMAKE_VERSION VERSION_GREATER_EQUAL 3.19)
    # Real JSON validation: parse, and require a non-empty benchmarks array.
    string(JSON n_benchmarks ERROR_VARIABLE json_err
           LENGTH "${json}" benchmarks)
    if(json_err)
      message(FATAL_ERROR
              "bench_smoke: ${artifact} is not well-formed benchmark JSON: "
              "${json_err}")
    endif()
    if(n_benchmarks EQUAL 0)
      message(FATAL_ERROR "bench_smoke: ${artifact} has no benchmark entries")
    endif()
    message(STATUS
            "bench_smoke: ${bin} ok (${n_benchmarks} benchmark entries)")
  else()
    # Pre-3.19 fallback: structural sniff only.
    if(NOT json MATCHES "\"benchmarks\"[ \t\r\n]*:[ \t\r\n]*\\[")
      message(FATAL_ERROR
              "bench_smoke: ${artifact} lacks a benchmarks array")
    endif()
    message(STATUS "bench_smoke: ${bin} ok (regex check; CMake < 3.19)")
  endif()
endforeach()

# BM_PackStride2 packs a fixed set of one-element runs, so its tags per
# payload is an exact counter (kStride2Runs in bench_data_plane.cpp): the
# SOR-shaped pack path must tag every run, once.  BM_ReleaseStride2
# releases the same set over a sparc32 -> ia32 (bulk-swap) link, where the
# barrier-release gap fill joins all of it into one block; per-run blocks
# there mean the fill regressed.  BM_CollectStride2 collects a red/black
# half-sweep of one-double cells, so its runs per collect is exact too
# (kCollectStride2Runs): one run per written cell, no more and no fewer.
set(stride2_tags 8192)
set(stride2_release_blocks 1)
set(stride2_collect_runs 11264)
if(CMAKE_VERSION VERSION_GREATER_EQUAL 3.19)
  file(READ "${BENCH_DIR}/BENCH_data_plane.json" json)
  string(JSON n_benchmarks LENGTH "${json}" benchmarks)
  math(EXPR last "${n_benchmarks} - 1")
  set(n_stride2 0)
  set(n_release 0)
  set(n_collect 0)
  foreach(i RANGE ${last})
    string(JSON name GET "${json}" benchmarks ${i} name)
    if(name MATCHES "^BM_PackStride2/")
      string(JSON tags GET "${json}" benchmarks ${i} tags_generated)
      if(NOT tags EQUAL stride2_tags)
        message(FATAL_ERROR "bench_smoke: ${name} tags_generated=${tags}, "
                "expected ${stride2_tags}")
      endif()
      math(EXPR n_stride2 "${n_stride2} + 1")
    elseif(name MATCHES "^BM_ReleaseStride2/")
      string(JSON blocks GET "${json}" benchmarks ${i} blocks)
      if(NOT blocks EQUAL stride2_release_blocks)
        message(FATAL_ERROR "bench_smoke: ${name} blocks=${blocks}, "
                "expected ${stride2_release_blocks}")
      endif()
      math(EXPR n_release "${n_release} + 1")
    elseif(name MATCHES "^BM_CollectStride2/")
      string(JSON runs GET "${json}" benchmarks ${i} runs)
      if(NOT runs EQUAL stride2_collect_runs)
        message(FATAL_ERROR "bench_smoke: ${name} runs=${runs}, "
                "expected ${stride2_collect_runs}")
      endif()
      math(EXPR n_collect "${n_collect} + 1")
    endif()
  endforeach()
  if(NOT n_stride2 EQUAL 1 OR NOT n_release EQUAL 1 OR NOT n_collect EQUAL 1)
    message(FATAL_ERROR "bench_smoke: expected 1 BM_PackStride2, 1 "
            "BM_ReleaseStride2 and 1 BM_CollectStride2 entry in "
            "BENCH_data_plane.json, found ${n_stride2}, ${n_release} and "
            "${n_collect}")
  endif()
  message(STATUS "bench_smoke: BM_PackStride2 tags_generated, "
          "BM_ReleaseStride2 blocks and BM_CollectStride2 runs ok")
endif()

# The adaptive rung of bench_codec is the tuner's one knob at work.  At
# 10 MB/s (bw:0) it must engage the codec on the compressible shapes: in
# fast mode (4 episodes, warmup and dwell 1) the first pack explores and
# the cost model keeps the codec on, so 3 of the 4 blocks are coded.  The
# incompressible Noise shape never codes a block.
set(codec_adaptive_blocks_SorDoubles 3)
set(codec_adaptive_blocks_LuInts 3)
set(codec_adaptive_blocks_Noise 0)
if(CMAKE_VERSION VERSION_GREATER_EQUAL 3.19)
  file(READ "${BENCH_DIR}/BENCH_codec.json" json)
  string(JSON n_benchmarks LENGTH "${json}" benchmarks)
  math(EXPR last "${n_benchmarks} - 1")
  set(n_adaptive 0)
  foreach(i RANGE ${last})
    string(JSON name GET "${json}" benchmarks ${i} name)
    if(name MATCHES "^BM_Codec([A-Za-z]+)/bw:0/mode:2")
      set(want "${codec_adaptive_blocks_${CMAKE_MATCH_1}}")
      string(JSON blocks GET "${json}" benchmarks ${i} codec_blocks)
      if(NOT blocks EQUAL want)
        message(FATAL_ERROR "bench_smoke: ${name} codec_blocks=${blocks}, "
                "expected ${want}")
      endif()
      math(EXPR n_adaptive "${n_adaptive} + 1")
    endif()
  endforeach()
  if(NOT n_adaptive EQUAL 3)
    message(FATAL_ERROR "bench_smoke: expected 3 bw:0/mode:2 entries in "
            "BENCH_codec.json, found ${n_adaptive}")
  endif()
  message(STATUS "bench_smoke: bench_codec adaptive rung at 10 MB/s ok")
endif()

# bench_obs_overhead additionally exports a Chrome trace-event file and the
# aggregated cluster metrics (written into BENCH_DIR, its working dir).
# Validate both: the trace must parse as JSON with a non-empty traceEvents
# array (that is exactly what Perfetto / chrome://tracing require to load
# it), the metrics must parse and carry the "merged" cluster view.
set(trace "${BENCH_DIR}/BENCH_obs_trace.json")
set(metrics "${BENCH_DIR}/BENCH_obs_metrics.json")
foreach(artifact IN ITEMS "${trace}" "${metrics}")
  if(NOT EXISTS "${artifact}")
    message(FATAL_ERROR "bench_smoke: bench_obs_overhead did not write "
            "${artifact}")
  endif()
endforeach()

if(CMAKE_VERSION VERSION_GREATER_EQUAL 3.19)
  file(READ "${trace}" json)
  string(JSON n_events ERROR_VARIABLE json_err LENGTH "${json}" traceEvents)
  if(json_err)
    message(FATAL_ERROR
            "bench_smoke: ${trace} is not well-formed trace JSON: ${json_err}")
  endif()
  if(n_events EQUAL 0)
    message(FATAL_ERROR "bench_smoke: ${trace} has no trace events")
  endif()
  message(STATUS "bench_smoke: obs trace ok (${n_events} trace events)")

  file(READ "${metrics}" json)
  string(JSON merged ERROR_VARIABLE json_err GET "${json}" merged)
  if(json_err)
    message(FATAL_ERROR
            "bench_smoke: ${metrics} lacks a merged cluster view: ${json_err}")
  endif()
  message(STATUS "bench_smoke: obs metrics ok")
else()
  file(READ "${trace}" json)
  if(NOT json MATCHES "\"traceEvents\"[ \t\r\n]*:[ \t\r\n]*\\[")
    message(FATAL_ERROR "bench_smoke: ${trace} lacks a traceEvents array")
  endif()
  file(READ "${metrics}" json)
  if(NOT json MATCHES "\"merged\"")
    message(FATAL_ERROR "bench_smoke: ${metrics} lacks a merged view")
  endif()
  message(STATUS "bench_smoke: obs artifacts ok (regex check; CMake < 3.19)")
endif()
