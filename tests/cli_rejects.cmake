# CLI rejection check: runs ctms_sim once and requires exit code 1, nothing on stdout, and
# exactly one stderr line, "<MESSAGE> (try --help)".
#
#   cmake -DCTMS_SIM=<ctms_sim> "-DARGS=<flags>" "-DMESSAGE=<expected error>"
#         -P tests/cli_rejects.cmake
#
# ARGS is one space-separated string.

foreach(var CTMS_SIM ARGS MESSAGE)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "cli_rejects.cmake: -D${var}= is required")
  endif()
endforeach()

separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${CTMS_SIM}" ${args}
                RESULT_VARIABLE exit_code
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)

if(NOT exit_code STREQUAL "1")
  message(FATAL_ERROR "ctms_sim ${ARGS}: exited ${exit_code}, expected 1\nstderr: ${err}")
endif()
if(NOT out STREQUAL "")
  message(FATAL_ERROR "ctms_sim ${ARGS}: printed to stdout before rejecting:\n${out}")
endif()
set(expected "${MESSAGE} (try --help)\n")
if(NOT err STREQUAL expected)
  message(FATAL_ERROR "ctms_sim ${ARGS}: stderr\n  ${err}expected\n  ${expected}")
endif()
