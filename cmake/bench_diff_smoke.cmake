# bench_diff_smoke: reruns one deterministic harness at the pinned baseline scale and
# gates each report it writes against the committed report in bench/baselines/ via
# bench_diff. Invoked by ctest (see top-level CMakeLists.txt) as:
#
#   cmake -DHARNESS=<path> -DBENCH_DIFF=<path> -DBASELINE_DIR=<dir>
#         -DBASELINES=<a.json,b.json,...> -DOUT_DIR=<scratch> [-DDIFF_SKIPS=<s1,s2,...>]
#         -P bench_diff_smoke.cmake
#
# The simulation is deterministic, so the committed baselines reproduce bit-for-bit on any
# box with the same toolchain; a tiny tolerance absorbs JSON double round-tripping. To
# refresh a baseline after an intentional behavior change, rerun the harness with the
# env below and copy the report over bench/baselines/ (bench_diff prints the drift).
#
# The harness also runs a second time, and its reports must equal the first run's exactly
# (bench_diff --tol 0.0, same skips): the same binary with the same knobs is deterministic.

foreach(var HARNESS BENCH_DIFF BASELINE_DIR BASELINES OUT_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "bench_diff_smoke: ${var} not set")
  endif()
endforeach()

# Optional DIFF_SKIPS: comma-separated substrings of metric names to exclude from the
# gate (forwarded as repeated `bench_diff --skip`). Used by harnesses that mix pinned
# deterministic metrics with machine-dependent timing metrics (bench_kernels gates its
# parity checksums while its GB/s and speedup numbers vary by host).
set(skip_args "")
string(REPLACE "," ";" skip_list "${DIFF_SKIPS}")
foreach(skip ${skip_list})
  list(APPEND skip_args --skip ${skip})
endforeach()

file(REMOVE_RECURSE ${OUT_DIR})
file(MAKE_DIRECTORY ${OUT_DIR})
get_filename_component(name ${HARNESS} NAME)

# Pinned scale: must stay in lockstep with the committed baselines' `scale` block
# (bench_diff refuses to compare mismatched knobs).
function(run_harness out_dir)
  execute_process(
    COMMAND ${CMAKE_COMMAND} -E env
      SLIM_USERS=2 SLIM_MINUTES=1 SLIM_SECONDS=5 SLIM_SOAK_EVENTS=20
      SLIM_BENCH_DIR=${out_dir}
      ${HARNESS}
    RESULT_VARIABLE rc
    OUTPUT_QUIET)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "bench_diff_smoke: ${name} exited with ${rc}")
  endif()
endfunction()
run_harness(${OUT_DIR})
file(MAKE_DIRECTORY ${OUT_DIR}/rerun)
run_harness(${OUT_DIR}/rerun)

string(REPLACE "," ";" baseline_list "${BASELINES}")
foreach(report ${baseline_list})
  execute_process(
    COMMAND ${BENCH_DIFF} --tol 0.000001 ${skip_args} ${BASELINE_DIR}/${report}
      ${OUT_DIR}/${report}
    RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR
      "bench_diff_smoke: ${name} drifted from bench/baselines/${report} (${rc}); if the "
      "change is intentional, regenerate the baselines at the pinned scale")
  endif()
  execute_process(
    COMMAND ${BENCH_DIFF} --tol 0.0 ${skip_args} ${OUT_DIR}/${report}
      ${OUT_DIR}/rerun/${report}
    RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR
      "bench_diff_smoke: a second run of ${name} wrote a different ${report} (${rc}); "
      "the harness is not deterministic")
  endif()
endforeach()
message(STATUS "bench_diff_smoke: ${name} matches ${BASELINES}")
