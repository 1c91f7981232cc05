# CLI smoke test for cmswitchc, run as `cmake -DCMSWITCHC=<exe>
# -DWORK_DIR=<dir> -P cli_smoke.cmake` from CTest. Checks exit codes and
# output shape of the user-facing invocations; any failed check aborts
# with FATAL_ERROR.

if(NOT CMSWITCHC)
    message(FATAL_ERROR "pass -DCMSWITCHC=<path to cmswitchc>")
endif()
if(NOT WORK_DIR)
    message(FATAL_ERROR "pass -DWORK_DIR=<scratch directory>")
endif()
file(REMOVE_RECURSE ${WORK_DIR})
file(MAKE_DIRECTORY ${WORK_DIR})
# Every invocation reads an empty stdin, so a mode that would serve
# stdin (serve without --socket) ends instead of blocking.
file(WRITE ${WORK_DIR}/empty.stdin "")

function(expect_exit code)
    # Remaining arguments are the cmswitchc argv.
    execute_process(COMMAND ${CMSWITCHC} ${ARGN}
                    INPUT_FILE ${WORK_DIR}/empty.stdin
                    RESULT_VARIABLE result
                    OUTPUT_VARIABLE out
                    ERROR_VARIABLE err)
    if(NOT result EQUAL ${code})
        message(FATAL_ERROR "cmswitchc ${ARGN}: expected exit ${code}, "
                            "got '${result}'\nstdout:\n${out}\nstderr:\n${err}")
    endif()
    set(last_out "${out}" PARENT_SCOPE)
    set(last_err "${err}" PARENT_SCOPE)
endfunction()

function(expect_contains haystack_var needle)
    if(NOT "${${haystack_var}}" MATCHES "${needle}")
        message(FATAL_ERROR "expected ${haystack_var} to contain '${needle}', "
                            "got:\n${${haystack_var}}")
    endif()
endfunction()

# No arguments: usage on stderr, exit 2.
expect_exit(2)
expect_contains(last_err "usage: cmswitchc")

# Usage errors also exit 2 with a pointer at --help.
expect_exit(2 --model)
expect_contains(last_err "needs a value")
expect_exit(2 --frobnicate)
expect_contains(last_err "unknown flag")
expect_exit(2 --model resnet18 --batch abc)
expect_contains(last_err "needs an integer")
expect_exit(2 --model resnet18 --batch -1)
expect_contains(last_err "must be >= 1")

# --help / --version succeed and describe the tool.
expect_exit(0 --help)
expect_contains(last_out "usage: cmswitchc")
expect_contains(last_out "--compiler")
expect_exit(0 --version)
expect_contains(last_out "cmswitchc [0-9]+\\.[0-9]+")

# Real compile: resnet18 on the default dynaplasia chip, stats only.
expect_exit(0 --model resnet18 --chip dynaplasia --stats)
expect_contains(last_err "resnet18")
expect_contains(last_err "cycles")
expect_contains(last_err "estimated energy")

# Plan search is serial; the removed --search-threads flag must fail
# loudly as an unknown flag in every mode (and on batch job lines)
# instead of being silently ignored.
expect_exit(2 --model resnet18 --stats --search-threads 2)
expect_contains(last_err "unknown flag '--search-threads'")
file(WRITE ${WORK_DIR}/jobs.txt "--model resnet18\n")
expect_exit(2 batch --jobs ${WORK_DIR}/jobs.txt --out-dir ${WORK_DIR}/out
            --search-threads 2)
expect_contains(last_err "unknown batch flag '--search-threads'")
expect_exit(2 serve --search-threads 2)
expect_contains(last_err "unknown serve flag '--search-threads'")
expect_exit(2 sim --scenario ${WORK_DIR}/none.json --search-threads 2)
expect_contains(last_err "unknown sim flag '--search-threads'")
file(WRITE ${WORK_DIR}/flag-jobs.txt "--model resnet18 --search-threads 2\n")
expect_exit(2 batch --jobs ${WORK_DIR}/flag-jobs.txt --out-dir ${WORK_DIR}/out)
expect_contains(last_err "flag-jobs.txt line 1: unknown flag '--search-threads'")

file(REMOVE_RECURSE "${WORK_DIR}")
message(STATUS "cli_smoke: all checks passed")
