# CLI transcript check: runs ctms_sim once and compares its exit code, stdout and
# --metrics-json output byte-for-byte with the pinned files under tests/golden/cli/.
#
#   cmake -DCTMS_SIM=<ctms_sim> -DNAME=<case> -DEXPECT_EXIT=<code> "-DARGS=<flags>"
#         -DGOLDEN_DIR=<tests/golden/cli> -DDATA_DIR=<data> -DWORK_DIR=<scratch dir>
#         -P tests/cli_golden.cmake
#
# ARGS is one space-separated string. The run happens inside WORK_DIR, where `data/` links
# to DATA_DIR, so every input and output path in ARGS is relative and the "wrote FILE" and
# "replayed ... from FILE" lines do not depend on where the tree is built. The case must
# write its metrics to `metrics.json`. The pinned files <case>.stdout and
# <case>.metrics.json are the stdout and metrics.json of the case's add_cli_golden_test
# command in tools/CMakeLists.txt, run in a directory where `data/` is a link to the
# repository's data/.

foreach(var CTMS_SIM NAME EXPECT_EXIT ARGS GOLDEN_DIR DATA_DIR WORK_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "cli_golden.cmake: -D${var}= is required")
  endif()
endforeach()

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")
file(CREATE_LINK "${DATA_DIR}" "${WORK_DIR}/data" SYMBOLIC)

separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${CTMS_SIM}" ${args}
                WORKING_DIRECTORY "${WORK_DIR}"
                RESULT_VARIABLE exit_code
                OUTPUT_FILE "${WORK_DIR}/stdout.txt")

if(NOT exit_code STREQUAL EXPECT_EXIT)
  message(FATAL_ERROR "${NAME}: ctms_sim exited ${exit_code}, expected ${EXPECT_EXIT}")
endif()

set(pairs "stdout.txt=${NAME}.stdout" "metrics.json=${NAME}.metrics.json")
foreach(pair IN LISTS pairs)
  string(REPLACE "=" ";" pair "${pair}")
  list(GET pair 0 produced)
  list(GET pair 1 pinned)
  if(NOT EXISTS "${WORK_DIR}/${produced}")
    message(FATAL_ERROR "${NAME}: the run wrote no ${produced}")
  endif()
  execute_process(COMMAND "${CMAKE_COMMAND}" -E compare_files
                          "${WORK_DIR}/${produced}" "${GOLDEN_DIR}/${pinned}"
                  RESULT_VARIABLE differs)
  if(differs)
    message(FATAL_ERROR "${NAME}: ${produced} differs from tests/golden/cli/${pinned} "
                        "(diff ${WORK_DIR}/${produced} against the pinned file)")
  endif()
endforeach()
