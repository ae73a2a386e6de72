# Runs one program and compares its stdout with a checked-in golden file.
#
#   cmake -DPROGRAM=<exe> [-DARGS=<a|b|...>] -DGOLDEN=<file> -DACTUAL_DIR=<dir>
#         [-DMASK=<regex> -DMASK_WITH=<text>] -P output_golden.cmake
#
# ARGS separates the program's arguments with '|'. MASK (optional) is
# replaced by MASK_WITH in the output before the comparison, for the few
# host-dependent fields (the engine's thread count). On a mismatch the
# actual output is left in ACTUAL_DIR. With the environment
# variable QMATCH_UPDATE_OUTPUT_GOLDENS set, the script rewrites GOLDEN
# instead of comparing (scripts/update_output_goldens.sh).

if(NOT DEFINED PROGRAM OR NOT DEFINED GOLDEN OR NOT DEFINED ACTUAL_DIR)
  message(FATAL_ERROR
          "output_golden.cmake needs -DPROGRAM, -DGOLDEN and -DACTUAL_DIR")
endif()
set(args "")
if(DEFINED ARGS AND NOT ARGS STREQUAL "")
  string(REPLACE "|" ";" args "${ARGS}")
endif()

execute_process(COMMAND "${PROGRAM}" ${args}
                OUTPUT_VARIABLE actual
                RESULT_VARIABLE exit_code)
if(NOT exit_code EQUAL 0)
  message(FATAL_ERROR "${PROGRAM} exited with ${exit_code}")
endif()
if(DEFINED MASK)
  string(REGEX REPLACE "${MASK}" "${MASK_WITH}" actual "${actual}")
endif()

if(DEFINED ENV{QMATCH_UPDATE_OUTPUT_GOLDENS})
  file(WRITE "${GOLDEN}" "${actual}")
  message(STATUS "wrote ${GOLDEN}")
  return()
endif()

if(NOT EXISTS "${GOLDEN}")
  message(FATAL_ERROR "missing golden ${GOLDEN} "
                      "(scripts/update_output_goldens.sh writes it)")
endif()
file(READ "${GOLDEN}" expected)
if(NOT actual STREQUAL expected)
  get_filename_component(name "${GOLDEN}" NAME)
  set(actual_file "${ACTUAL_DIR}/${name}.actual")
  file(WRITE "${actual_file}" "${actual}")
  execute_process(COMMAND diff -u "${GOLDEN}" "${actual_file}"
                  OUTPUT_VARIABLE delta)
  message(FATAL_ERROR "stdout differs from ${GOLDEN} "
                      "(actual output in ${actual_file}):\n${delta}")
endif()
