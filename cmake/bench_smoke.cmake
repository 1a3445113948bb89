# bench_smoke: runs every benchmark harness at a tiny scale and validates that each one
# produced a conforming BENCH_<name>.json. Invoked by ctest (see the bench_smoke test in the
# top-level CMakeLists.txt) as:
#
#   cmake -DBENCH_DIR=<build>/bench -DVALIDATOR=<path> -DOUT_DIR=<scratch> -P bench_smoke.cmake
#
# Fails on: a harness exiting nonzero, a harness not writing its report, or any report
# failing schema validation (schema drift between writer and validator).

foreach(var BENCH_DIR VALIDATOR OUT_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "bench_smoke: ${var} not set")
  endif()
endforeach()

file(REMOVE_RECURSE ${OUT_DIR})
file(MAKE_DIRECTORY ${OUT_DIR})

file(GLOB harnesses ${BENCH_DIR}/bench_*)
list(LENGTH harnesses harness_count)
if(harness_count EQUAL 0)
  message(FATAL_ERROR "bench_smoke: no harnesses found in ${BENCH_DIR}")
endif()

foreach(harness ${harnesses})
  get_filename_component(name ${harness} NAME)
  message(STATUS "bench_smoke: ${name}")
  execute_process(
    COMMAND ${CMAKE_COMMAND} -E env
      SLIM_USERS=2 SLIM_MINUTES=1 SLIM_SECONDS=5 SLIM_SOAK_EVENTS=20
      SLIM_DP_FRAMES=6 SLIM_DP_REPS=3
      SLIM_CHURN_SESSIONS=2 SLIM_CHURN_CONSOLES=3 SLIM_CHURN_OPS=24
      SLIM_MIG_REPS=2 SLIM_MIG_WIDTH=160 SLIM_MIG_HEIGHT=120
      SLIM_BENCH_DIR=${OUT_DIR}
      SLIM_TRACE=${OUT_DIR}/TRACE_${name}.json
      ${harness}
    RESULT_VARIABLE rc
    OUTPUT_QUIET)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "bench_smoke: ${name} exited with ${rc}")
  endif()
endforeach()

file(GLOB reports ${OUT_DIR}/BENCH_*.json)
list(LENGTH reports report_count)
if(NOT report_count EQUAL harness_count)
  message(FATAL_ERROR
    "bench_smoke: ${harness_count} harnesses ran but ${report_count} BENCH_*.json reports "
    "were written to ${OUT_DIR} - some harness did not emit its report")
endif()

execute_process(COMMAND ${VALIDATOR} ${reports} RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "bench_smoke: report validation failed (${rc})")
endif()

# Every harness honors SLIM_TRACE, and every trace it wrote must load as Chrome trace
# JSON (parseable array, balanced B/E spans) — SLIM_TRACE was set above, so a harness that
# ignores it or writes a corrupt trace fails here.
file(GLOB traces ${OUT_DIR}/TRACE_*.json)
list(LENGTH traces trace_count)
if(NOT trace_count EQUAL harness_count)
  message(FATAL_ERROR
    "bench_smoke: expected ${harness_count} TRACE_*.json files but found ${trace_count} "
    "in ${OUT_DIR} - some harness dropped its SLIM_TRACE output")
endif()
execute_process(COMMAND ${VALIDATOR} --trace ${traces} RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "bench_smoke: trace validation failed (${rc})")
endif()
message(STATUS "bench_smoke: ${report_count} reports and ${trace_count} traces validated")
