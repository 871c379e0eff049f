# Runs one diffreg command line for a CTest entry and checks how it ended:
#
#   cmake -DBIN=<diffreg> -DARGS="<flags>" -DEXIT=<code> -DOUTPUT=<regex>
#         -P run_cli.cmake
#
# The entry fails unless the run exits with EXIT, its stdout and stderr
# together match OUTPUT, and no sanitizer report appears (ASan and UBSan
# exit 1 too, so the exit code alone cannot tell them from a clean error).
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${BIN}" ${args} RESULT_VARIABLE rc
                OUTPUT_VARIABLE out ERROR_VARIABLE err)
set(all "${out}${err}")
message("${all}")
if(NOT rc STREQUAL "${EXIT}")
  message(FATAL_ERROR "diffreg exited '${rc}', want ${EXIT}")
endif()
if(NOT all MATCHES "${OUTPUT}")
  message(FATAL_ERROR "output does not match: ${OUTPUT}")
endif()
if(all MATCHES "Sanitizer|runtime error:")
  message(FATAL_ERROR "sanitizer report")
endif()
