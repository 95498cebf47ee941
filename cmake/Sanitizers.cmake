# Opt-in sanitizer instrumentation for the whole build (library, tests,
# benches, and any FetchContent dependencies configured after this point, so
# e.g. a fetched GoogleTest is instrumented consistently with the code under
# test).
#
# Usage:   cmake -DKDC_SANITIZE=address,undefined ...   (ASan + UBSan)
#          cmake -DKDC_SANITIZE=thread ...              (TSan)
# or via the `asan` / `tsan` entries in CMakePresets.json. ThreadSanitizer is
# the job that proves the thread pool and the sweep engine race-free;
# it cannot be combined with AddressSanitizer.

set(KDC_SANITIZE "" CACHE STRING
    "Comma/semicolon-separated sanitizers to enable (address, undefined, thread, leak)")

if(KDC_SANITIZE)
    string(REPLACE "," ";" _kdc_sanitizers "${KDC_SANITIZE}")
    list(REMOVE_DUPLICATES _kdc_sanitizers)

    set(_kdc_known address undefined thread leak)
    foreach(_san IN LISTS _kdc_sanitizers)
        if(NOT _san IN_LIST _kdc_known)
            message(FATAL_ERROR
                "KDC_SANITIZE: unknown sanitizer '${_san}' "
                "(expected a subset of: ${_kdc_known})")
        endif()
    endforeach()

    if("thread" IN_LIST _kdc_sanitizers AND
       ("address" IN_LIST _kdc_sanitizers OR "leak" IN_LIST _kdc_sanitizers))
        message(FATAL_ERROR
            "KDC_SANITIZE: 'thread' cannot be combined with 'address'/'leak'")
    endif()

    list(JOIN _kdc_sanitizers "," _kdc_sanitize_arg)
    message(STATUS "Sanitizers enabled: -fsanitize=${_kdc_sanitize_arg}")

    add_compile_options(-fsanitize=${_kdc_sanitize_arg}
                        -fno-omit-frame-pointer -g)
    add_link_options(-fsanitize=${_kdc_sanitize_arg})
endif()
