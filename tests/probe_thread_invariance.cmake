# Runs tools/winomc-hash-probe (PROBE) at WINOMC_THREADS=1 and =4 in the
# calling environment (WINOMC_ISA, _PREC, _SPARSE pass through) and
# fails unless both print the same hashes: every probed result must be
# bitwise identical for any thread count.
#   cmake -DPROBE=<path> -P probe_thread_invariance.cmake
cmake_minimum_required(VERSION 3.16)
foreach(t 1 4)
    execute_process(
        COMMAND ${CMAKE_COMMAND} -E env WINOMC_THREADS=${t} ${PROBE}
        OUTPUT_VARIABLE out${t}
        RESULT_VARIABLE rc${t})
    if(NOT rc${t} EQUAL 0)
        message(FATAL_ERROR "winomc-hash-probe exited ${rc${t}} at "
                            "WINOMC_THREADS=${t}")
    endif()
endforeach()
if(out1 STREQUAL "")
    message(FATAL_ERROR "winomc-hash-probe printed nothing")
endif()
if(NOT out1 STREQUAL out4)
    string(REPLACE "\n" ";" lines1 "${out1}")
    string(REPLACE "\n" ";" lines4 "${out4}")
    set(diff "")
    foreach(line IN LISTS lines1)
        if(NOT line IN_LIST lines4)
            string(APPEND diff "\n  threads=1: ${line}")
        endif()
    endforeach()
    message(FATAL_ERROR "hash probe differs between WINOMC_THREADS=1 "
                        "and 4:${diff}")
endif()
