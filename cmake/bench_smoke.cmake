# bench_smoke: runs every benchmark harness at a tiny scale and validates that each one
# produced conforming BENCH_<name>.json reports. Invoked by ctest (see the bench_smoke
# test in the top-level CMakeLists.txt) as:
#
#   cmake -DBENCH_DIR=<build>/bench -DVALIDATOR=<path> -DOUT_DIR=<scratch> -P bench_smoke.cmake
#
# Fails on: a harness exiting nonzero, a harness writing no report or not exactly one
# SLIM_TRACE trace, or any report or trace failing validation (schema drift between
# writer and validator).

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

# Each harness writes into its own directory, so the completeness checks are per harness:
# one harness writing several reports cannot hide another writing none.
foreach(harness ${harnesses})
  get_filename_component(name ${harness} NAME)
  message(STATUS "bench_smoke: ${name}")
  set(dir ${OUT_DIR}/${name})
  file(MAKE_DIRECTORY ${dir})
  execute_process(
    COMMAND ${CMAKE_COMMAND} -E env
      SLIM_USERS=2 SLIM_MINUTES=1 SLIM_SECONDS=5 SLIM_SOAK_EVENTS=20
      SLIM_DP_FRAMES=6 SLIM_DP_REPS=3
      SLIM_CHURN_SESSIONS=2 SLIM_CHURN_CONSOLES=3 SLIM_CHURN_OPS=24
      SLIM_MIG_REPS=2 SLIM_MIG_WIDTH=160 SLIM_MIG_HEIGHT=120
      SLIM_BENCH_DIR=${dir}
      SLIM_TRACE=${dir}/TRACE_${name}.json
      ${harness}
    RESULT_VARIABLE rc
    OUTPUT_QUIET)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "bench_smoke: ${name} exited with ${rc}")
  endif()
  file(GLOB harness_reports ${dir}/BENCH_*.json)
  if(NOT harness_reports)
    message(FATAL_ERROR "bench_smoke: ${name} wrote no BENCH_*.json report to ${dir}")
  endif()
  # Every harness honors SLIM_TRACE (set above), so one that ignores it fails here.
  file(GLOB harness_traces ${dir}/TRACE_*.json)
  list(LENGTH harness_traces harness_trace_count)
  if(NOT harness_trace_count EQUAL 1)
    message(FATAL_ERROR
      "bench_smoke: ${name} wrote ${harness_trace_count} TRACE_*.json files to ${dir}, "
      "expected exactly one (its SLIM_TRACE output)")
  endif()
  list(APPEND reports ${harness_reports})
  list(APPEND traces ${harness_traces})
endforeach()
list(LENGTH reports report_count)
list(LENGTH traces trace_count)

execute_process(COMMAND ${VALIDATOR} ${reports} RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "bench_smoke: report validation failed (${rc})")
endif()

# Every trace must load as Chrome trace JSON (parseable array, balanced B/E spans).
execute_process(COMMAND ${VALIDATOR} --trace ${traces} RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "bench_smoke: trace validation failed (${rc})")
endif()
message(STATUS "bench_smoke: ${report_count} reports and ${trace_count} traces validated")
