# Runs one pdat command line and checks how it ended (CLI ctests, see
# tests/CMakeLists.txt):
#
#   cmake -DPDAT=<pdat binary> -DARGS="<arguments>" -DEXIT=<status>
#         [-DTIMEOUT=<seconds>] [-DLINE=<line>] [-DREPORT=<path>]
#         [-DGOLDEN=<path>] -P cli_test.cmake
#
# ARGS is split like a shell command line. The run fails when pdat exits
# with any other status, is killed by a signal, or outlives TIMEOUT
# (default 600 s). LINE must appear as a whole line of pdat's stdout, or of
# REPORT when that is given; GOLDEN must equal REPORT byte for byte.
if(NOT DEFINED TIMEOUT)
  set(TIMEOUT 600)
endif()
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${PDAT}" ${args}
                RESULT_VARIABLE status OUTPUT_VARIABLE out ERROR_VARIABLE err
                TIMEOUT ${TIMEOUT})
if(NOT status STREQUAL "${EXIT}")
  message(FATAL_ERROR "pdat ${ARGS}: exit status '${status}', expected ${EXIT}\n"
                      "--- stdout\n${out}--- stderr\n${err}")
endif()
if(DEFINED LINE)
  set(text "${out}")
  if(DEFINED REPORT)
    file(READ "${REPORT}" text)
  endif()
  string(FIND "\n${text}" "\n${LINE}\n" at)
  if(at EQUAL -1)
    message(FATAL_ERROR "pdat ${ARGS}: no line '${LINE}' in\n${text}")
  endif()
endif()
if(DEFINED GOLDEN)
  execute_process(COMMAND "${CMAKE_COMMAND}" -E compare_files "${REPORT}" "${GOLDEN}"
                  RESULT_VARIABLE differs)
  if(differs)
    message(FATAL_ERROR "pdat ${ARGS}: ${REPORT} differs from ${GOLDEN}")
  endif()
endif()
