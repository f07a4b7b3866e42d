# Writes the build-info header from build_info.h.in with the checkout's
# current commit, run by the hima_build_info target on every build:
#
#   cmake -DHIMA_SOURCE_DIR=<checkout> -DHIMA_BUILD_INFO=<header> \
#         -P cmake/build_info.cmake
#
# The sha carries a "-dirty" suffix when tracked files differ from HEAD
# and reads "unknown" outside a git checkout. configure_file() leaves an
# unchanged header untouched, so a rebuild at the same state recompiles
# nothing.
execute_process(COMMAND git describe --always --dirty --abbrev=7
                        --exclude=*
                WORKING_DIRECTORY ${HIMA_SOURCE_DIR}
                OUTPUT_VARIABLE HIMA_GIT_SHA
                OUTPUT_STRIP_TRAILING_WHITESPACE
                ERROR_QUIET
                RESULT_VARIABLE HIMA_GIT_RESULT)
if(NOT HIMA_GIT_RESULT EQUAL 0 OR HIMA_GIT_SHA STREQUAL "")
    set(HIMA_GIT_SHA "unknown")
endif()
configure_file(${HIMA_SOURCE_DIR}/cmake/build_info.h.in
               ${HIMA_BUILD_INFO} @ONLY)
