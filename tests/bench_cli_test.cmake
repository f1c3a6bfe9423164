# Command-line contract of forksim_bench:
#   cmake -DBENCH=<path to forksim_bench> -DWORK_DIR=<scratch dir> \
#         -P bench_cli_test.cmake
# A bad command line exits 2 before anything runs and names the bad
# argument; a record or CSV that cannot be written fails the run.

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")

# run(<bench dir> <arg>...): runs forksim_bench with FORKSIM_BENCH_DIR set
# and leaves its exit code, stdout and stderr in rc, out and err.
macro(run dir)
  execute_process(
    COMMAND ${CMAKE_COMMAND} -E env FORKSIM_BENCH_DIR=${dir} ${BENCH} ${ARGN}
    RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
endmacro()

function(fail what)
  message(FATAL_ERROR "${what}: exit ${rc}\nstdout:\n${out}\nstderr:\n${err}")
endfunction()

function(expect_reject pattern)
  run("${WORK_DIR}" ${ARGN})
  list(JOIN ARGN " " args)
  if(NOT rc EQUAL 2 OR NOT out STREQUAL "" OR NOT err MATCHES "${pattern}")
    fail("forksim_bench ${args} should be rejected naming '${pattern}'")
  endif()
endfunction()

expect_reject("'no_such_experiment'" fig4_replay no_such_experiment)
expect_reject("'--seed'" fig4_replay --seed 3)
expect_reject("--reduced: 'fig1_short_term' has no reduced slice"
              fig1_short_term --reduced)
expect_reject("--csv needs a directory" fig4_replay --csv)

# No arguments: the experiment names, one per line, each once.
run("${WORK_DIR}")
string(REGEX MATCHALL "[^\n]+" names "${out}")
list(LENGTH names listed)
list(REMOVE_DUPLICATES names)
list(LENGTH names unique)
if(NOT rc EQUAL 0 OR NOT listed EQUAL 19 OR NOT unique EQUAL 19)
  fail("forksim_bench with no arguments should list 19 unique names")
endif()

# A full run writes its record, seed included, and its CSV.
run("${WORK_DIR}" fig4_replay --csv "${WORK_DIR}")
if(NOT rc EQUAL 0 OR NOT EXISTS "${WORK_DIR}/fig4.csv" OR
   NOT EXISTS "${WORK_DIR}/BENCH_fig4_replay.json")
  fail("fig4_replay --csv should write its CSV and record")
endif()
file(READ "${WORK_DIR}/BENCH_fig4_replay.json" record)
if(NOT record MATCHES "\"seed\":4[,}]")
  fail("BENCH_fig4_replay.json should carry seed 4: ${record}")
endif()

# Checks that pass do not hide a record or a CSV that was not written.
run("${WORK_DIR}/missing" fig4_replay)
if(rc EQUAL 0 OR NOT out MATCHES "ALL CHECKS PASSED" OR
   NOT err MATCHES "cannot write BENCH_fig4_replay\\.json")
  fail("an unwritable record directory should fail the run")
endif()
run("${WORK_DIR}" fig4_replay --csv "${WORK_DIR}/missing")
if(rc EQUAL 0 OR NOT out MATCHES "ALL CHECKS PASSED" OR
   NOT err MATCHES "cannot write [^\n]*/missing/fig4\\.csv")
  fail("an unwritable CSV directory should fail the run")
endif()

# A reduced slice writes no record.
file(MAKE_DIRECTORY "${WORK_DIR}/reduced")
run("${WORK_DIR}/reduced" ablate_topology --reduced)
file(GLOB written "${WORK_DIR}/reduced/*")
if(NOT rc EQUAL 0 OR written)
  fail("ablate_topology --reduced should pass and write no record")
endif()
