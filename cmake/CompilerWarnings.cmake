# Warning policy helpers.
#
# kdc_enable_warnings(target)        - the strict set used across all targets.
# kdc_enable_warnings_as_errors(tgt) - additionally promotes warnings to errors
#                                      (applied to the library and the
#                                      bench binaries; gated on
#                                      KDC_WERROR so downstream users with
#                                      newer, noisier compilers can opt out).

function(kdc_enable_warnings target)
    if(MSVC)
        target_compile_options(${target} PRIVATE /W4 /permissive-)
    else()
        target_compile_options(${target} PRIVATE -Wall -Wextra -Wpedantic)
    endif()
endfunction()

function(kdc_enable_warnings_as_errors target)
    kdc_enable_warnings(${target})
    if(KDC_WERROR)
        if(MSVC)
            target_compile_options(${target} PRIVATE /WX)
        else()
            target_compile_options(${target} PRIVATE -Werror)
        endif()
    endif()
endfunction()
