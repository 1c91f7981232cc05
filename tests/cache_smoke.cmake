# The persistent plan cache acceptance gate, driven through real
# cmswitchc processes (the cross-process claim needs processes, not
# threads):
#   1. two successive single-mode runs with one --cache-dir: byte-
#      identical reports, the second reporting a disk hit on stderr;
#   2. corrupted / truncated / version-bumped artifact files silently
#      recompile and still produce the identical report;
#   3. `cache stats` sees the *lifetime* totals those five processes
#      merged into the stats sidecar — including the incremental
#      neighbor counters: the first compile has no retained warm state
#      (1 miss), the three damaged-artifact recompiles warm-start from
#      the first run's .warm sidecar (3 hits) and still byte-match;
#   4. the full 3-chip x 4-workload x 4-compiler batch matrix run cold
#      (serial) then warm (4 threads) over a shared --cache-dir: the
#      warm pass compiles nothing (every unique key is a disk hit),
#      every per-job report is byte-identical to the cold serial run,
#      and the v6 summaries carry matching sidecar/fingerprint fields;
#   5. `cache verify` passes the warm directory, `cache gc
#      --max-bytes 0` then reaps every artifact but never the sidecar.
#   6. cross-process neighbor warm start: process A compiles a decode
#      step at KV 128 into a fresh --cache-dir, process B compiles KV 160
#      over it and must warm-start from A's .warm sidecar (a neighbor
#      hit found by the directory scan) with a report byte-identical to
#      a cold KV-160 compile.
#   7. single mode reports a dropped store: with the plan's path taken
#      by a directory the publishing rename fails (even as root), so
#      the run must say "not stored", never "stored", and still write
#      the identical report;
#   8. single mode names its lookup tier: KV 128 then KV 160 over one
#      --cache-dir, the second a "(neighbor)" compile byte-identical to
#      a cold KV-160 compile, and `cache stats` counts the neighbor hit.
# Run as `cmake -DCMSWITCHC=<exe> -DWORK_DIR=<dir> -P cache_smoke.cmake`.

if(NOT CMSWITCHC)
    message(FATAL_ERROR "pass -DCMSWITCHC=<path to cmswitchc>")
endif()
if(NOT WORK_DIR)
    message(FATAL_ERROR "pass -DWORK_DIR=<scratch directory>")
endif()

# A failed run aborts mid-script (FATAL_ERROR) and leaves its scratch
# tree behind; this guard removes any such leftovers so repeated local
# runs always start cold. The tail of a *successful* run removes the
# tree too.
file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")
set(cache_dir ${WORK_DIR}/plan-cache)

# --- 1. single mode: second process must warm-start from disk ---------

# run_model(<report> <cache_dir> <expect_pattern> <model flags...>): one
# single-mode compile whose stderr must match <expect_pattern>; its
# stderr comes back in `single_err`.
function(run_model report cache expect_pattern)
    execute_process(COMMAND ${CMSWITCHC} ${ARGN} --stats
                            --emit-json ${report} --cache-dir ${cache}
                    RESULT_VARIABLE result
                    ERROR_VARIABLE err)
    if(NOT result EQUAL 0)
        message(FATAL_ERROR "cmswitchc --cache-dir failed (${result}):\n${err}")
    endif()
    if(NOT err MATCHES "${expect_pattern}")
        message(FATAL_ERROR "expected stderr to match '${expect_pattern}', "
                            "got:\n${err}")
    endif()
    set(single_err "${err}" PARENT_SCOPE)
endfunction()

function(run_single report expect_pattern)
    run_model(${report} ${cache_dir} "${expect_pattern}" --model resnet18)
endfunction()

# expect_same(<a> <b> <what>): the two files must be byte-identical.
function(expect_same a b what)
    execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files ${a} ${b}
                    RESULT_VARIABLE same)
    if(NOT same EQUAL 0)
        message(FATAL_ERROR "${what}")
    endif()
endfunction()

run_single(${WORK_DIR}/cold.json "plan cache miss; stored")
run_single(${WORK_DIR}/warm.json "plan cache disk hit")

expect_same(${WORK_DIR}/cold.json ${WORK_DIR}/warm.json
            "cold and warm single-mode reports differ")

# --- 2. damaged artifacts must silently recompile ---------------------

file(GLOB plans ${cache_dir}/*.plan)
list(LENGTH plans plan_count)
if(NOT plan_count EQUAL 1)
    message(FATAL_ERROR "expected 1 plan file after single runs, "
                        "got ${plan_count}")
endif()
list(GET plans 0 plan_file)
get_filename_component(plan_key ${plan_file} NAME_WE)

# Bit corruption (same size, different content).
file(WRITE ${plan_file} "cmswitch-plan-v1\nthis is not a real artifact")
run_single(${WORK_DIR}/recompiled.json "plan cache miss; stored")
expect_same(${WORK_DIR}/cold.json ${WORK_DIR}/recompiled.json
            "report after corrupt-artifact recompile differs")

# Version mismatch: a v2 tag from the future must be ignored by the v1
# reader (new tag == new format; old readers reject, recompile, and
# overwrite).
file(WRITE ${plan_file} "cmswitch-plan-v2\npayload from the future")
run_single(${WORK_DIR}/devolved.json "plan cache miss; stored")
expect_same(${WORK_DIR}/cold.json ${WORK_DIR}/devolved.json
            "report after version-mismatch recompile differs")

# Truncation: an empty (or cut-short) plan file recompiles too.
file(WRITE ${plan_file} "")
run_single(${WORK_DIR}/retruncated.json "plan cache miss; stored")
expect_same(${WORK_DIR}/cold.json ${WORK_DIR}/retruncated.json
            "report after truncated-artifact recompile differs")

# --- 3. cache stats: lifetime totals survive across processes ---------

# run_cache(<out_var> <verb> <args...>): run a `cmswitchc cache` verb
# and return its stdout JSON report.
function(run_cache out_var verb)
    execute_process(COMMAND ${CMSWITCHC} cache ${verb} ${ARGN}
                    RESULT_VARIABLE result
                    OUTPUT_VARIABLE out
                    ERROR_VARIABLE err)
    if(NOT result EQUAL 0)
        message(FATAL_ERROR "cmswitchc cache ${verb} failed (${result}):\n"
                            "${err}")
    endif()
    set(${out_var} "${out}" PARENT_SCOPE)
endfunction()

# expect_json(<document> <expected> <path...>): check one JSON field.
function(expect_json document expected)
    string(JSON actual GET "${document}" ${ARGN})
    if(NOT actual STREQUAL expected)
        message(FATAL_ERROR "json ${ARGN}: expected '${expected}', "
                            "got '${actual}'")
    endif()
endfunction()

# Five single-mode processes touched the cache above: 1 cold miss+store,
# 1 warm hit, then 3 damaged-artifact runs (reject+miss+store each).
# Each process flushed its counters into the sidecar on exit; `cache
# stats` (a sixth process) must see the merged lifetime totals.
run_cache(stats_doc stats --cache-dir ${cache_dir})
expect_json("${stats_doc}" ON sidecar_present)
expect_json("${stats_doc}" 1 hits)
expect_json("${stats_doc}" 4 misses)
expect_json("${stats_doc}" 4 stores)
expect_json("${stats_doc}" 3 rejected)
expect_json("${stats_doc}" 1 plan_files)
# Incremental compilation: the cold run found no retained warm state
# (1 neighbor miss) and published a .warm sidecar; each damaged-artifact
# recompile warm-started from it (3 neighbor hits) — and stage 2 already
# proved those warm recompiles byte-match the cold report.
expect_json("${stats_doc}" 3 neighbor_hits)
expect_json("${stats_doc}" 0 neighbor_partials)
expect_json("${stats_doc}" 1 neighbor_misses)
string(JSON build_fingerprint GET "${stats_doc}" fingerprint)

# --- 4. batch matrix: cold serial, then warm multi-threaded -----------

set(tiny_chip ${WORK_DIR}/tiny.chip)
file(WRITE ${tiny_chip} "\
name = tiny
technology = edram
num_switch_arrays = 16
array_rows = 128
array_cols = 128
buffer_bytes = 64
internal_bw = 2
extern_bw = 4
buffer_bw = 1
op_per_cycle = 8
write_row_latency = 2
fu_ops_per_cycle = 16
")

set(workloads
    "--model resnet18"
    "--model mobilenetv2"
    "--model bert-base --layers 2 --seq 64"
    "--model opt-6.7b --decode 256 --layers 2")
set(compilers cmswitch cim-mlc occ puma)

set(jobs "# full scenario matrix\n")
set(job_count 0)
foreach(chip dynaplasia prime ${tiny_chip})
    foreach(workload IN LISTS workloads)
        foreach(compiler IN LISTS compilers)
            string(APPEND jobs
                   "${workload} --chip ${chip} --compiler ${compiler}\n")
            math(EXPR job_count "${job_count} + 1")
        endforeach()
    endforeach()
endforeach()
set(jobs_file ${WORK_DIR}/jobs.txt)
file(WRITE ${jobs_file} "${jobs}")
set(batch_cache ${WORK_DIR}/batch-plan-cache)

# run_batch(<threads> <out_dir> <cache_dir> [extra batch flags...])
function(run_batch threads out_dir cache)
    execute_process(COMMAND ${CMSWITCHC} batch --jobs ${jobs_file}
                            --threads ${threads} --out-dir ${out_dir}
                            --cache-dir ${cache} ${ARGN}
                    RESULT_VARIABLE result
                    ERROR_VARIABLE err)
    if(NOT result EQUAL 0)
        message(FATAL_ERROR "cmswitchc batch --threads ${threads} "
                            "${ARGN} --cache-dir failed (${result}):\n${err}")
    endif()
endfunction()

run_batch(1 ${WORK_DIR}/cold-serial ${batch_cache})
run_batch(4 ${WORK_DIR}/warm-mt ${batch_cache})

# expect_summary(<expected> <path...>): check one summary field.
function(expect_summary summary expected)
    string(JSON actual GET "${summary}" ${ARGN})
    if(NOT actual STREQUAL expected)
        message(FATAL_ERROR "summary ${ARGN}: expected '${expected}', "
                            "got '${actual}'")
    endif()
endfunction()

# Cold pass: nothing on disk yet -> every unique key misses disk and is
# stored; warm pass: every unique key is served from disk, zero stores.
# The v6 summaries also carry the cross-process sidecar totals (cold
# flushed before its summary, warm sees cold's flush plus its own) and
# the build fingerprint every process of this build agrees on.
file(READ ${WORK_DIR}/cold-serial/summary.json cold_summary)
expect_summary("${cold_summary}" cmswitch-batch-summary-v6 schema)
expect_summary("${cold_summary}" ${job_count} jobs)
expect_summary("${cold_summary}" 0 invalid_jobs)
expect_summary("${cold_summary}" ${job_count} cache disk_misses)
expect_summary("${cold_summary}" ${job_count} cache disk_stores)
expect_summary("${cold_summary}" 0 cache disk_hits)
expect_summary("${cold_summary}" 0 cache sidecar_hits)
expect_summary("${cold_summary}" ${job_count} cache sidecar_misses)
expect_summary("${cold_summary}" ${job_count} cache sidecar_stores)
expect_summary("${cold_summary}" 0 cache sidecar_touch_failed)
# Every matrix cell is a distinct structural family (chip x model x
# compiler), so the cold pass finds no warm neighbors anywhere.
expect_summary("${cold_summary}" 0 cache disk_neighbor_hits)
expect_summary("${cold_summary}" 0 cache disk_neighbor_partials)
expect_summary("${cold_summary}" ${job_count} cache disk_neighbor_misses)
expect_summary("${cold_summary}" ${job_count} cache sidecar_neighbor_misses)
expect_summary("${cold_summary}" ${build_fingerprint} cache fingerprint)
# v4: the latency section's deterministic halves — every cold job
# compiled (one kPhaseCompile sample each), every job executed.
expect_summary("${cold_summary}" ${job_count} latency compile_seconds count)
expect_summary("${cold_summary}" ${job_count} latency execute_seconds count)
expect_summary("${cold_summary}" ${job_count} latency queue_wait_seconds count)

file(READ ${WORK_DIR}/warm-mt/summary.json warm_summary)
expect_summary("${warm_summary}" 0 invalid_jobs)
expect_summary("${warm_summary}" ${job_count} cache disk_hits)
expect_summary("${warm_summary}" 0 cache disk_misses)
expect_summary("${warm_summary}" 0 cache disk_stores)
expect_summary("${warm_summary}" 0 cache disk_rejected)
expect_summary("${warm_summary}" ${job_count} cache sidecar_hits)
expect_summary("${warm_summary}" ${job_count} cache sidecar_misses)
expect_summary("${warm_summary}" ${job_count} cache sidecar_stores)
# Disk hits never reach the neighbor step of the lookup chain: the warm
# pass adds nothing to the neighbor totals.
expect_summary("${warm_summary}" 0 cache disk_neighbor_misses)
expect_summary("${warm_summary}" 0 cache disk_neighbor_hits)
expect_summary("${warm_summary}" ${job_count} cache sidecar_neighbor_misses)
expect_summary("${warm_summary}" ${build_fingerprint} cache fingerprint)
# Warm pass serves every job from disk: zero compiles, full executes.
expect_summary("${warm_summary}" 0 latency compile_seconds count)
expect_summary("${warm_summary}" ${job_count} latency execute_seconds count)

# Warm multi-threaded reports must be byte-identical to cold serial.
file(GLOB reports RELATIVE ${WORK_DIR}/cold-serial
     ${WORK_DIR}/cold-serial/job*.json)
list(LENGTH reports report_count)
if(NOT report_count EQUAL ${job_count})
    message(FATAL_ERROR "expected ${job_count} cold reports, "
                        "got ${report_count}")
endif()
foreach(report IN LISTS reports)
    expect_same(${WORK_DIR}/cold-serial/${report} ${WORK_DIR}/warm-mt/${report}
                "${report} differs between cold serial and warm 4-thread")
endforeach()

# --- 5. lifecycle: verify passes, gc reaps plans but not the sidecar --

run_cache(verify_doc verify --cache-dir ${batch_cache})
expect_json("${verify_doc}" ${job_count} scanned_files)
expect_json("${verify_doc}" ${job_count} valid_files)
expect_json("${verify_doc}" 0 damaged_files)
expect_json("${verify_doc}" ON clean)

run_cache(gc_doc gc --cache-dir ${batch_cache} --max-bytes 0)
expect_json("${gc_doc}" ${job_count} scanned_files)
expect_json("${gc_doc}" ${job_count} deleted_files)
expect_json("${gc_doc}" 0 kept_files)

# Post-gc: the artifacts are gone, the sidecar totals are not. One warm
# pass hit this cache dir (warm-mt), the cold pass missed+stored once
# per job.
run_cache(post_gc_stats stats --cache-dir ${batch_cache})
expect_json("${post_gc_stats}" 0 plan_files)
expect_json("${post_gc_stats}" ON sidecar_present)
expect_json("${post_gc_stats}" ${job_count} hits)
expect_json("${post_gc_stats}" ${job_count} misses)
expect_json("${post_gc_stats}" ${job_count} stores)
expect_json("${post_gc_stats}" 0 neighbor_hits)
expect_json("${post_gc_stats}" ${job_count} neighbor_misses)

# --- 6. cross-process neighbor: the directory scan finds A's state ----

# run_decode(<name> <kv> <cache_dir>): one llama2-7b decode-step job.
function(run_decode name kv cache)
    file(WRITE ${WORK_DIR}/${name}.jobs
         "--model llama2-7b --decode ${kv} --layers 2\n")
    execute_process(COMMAND ${CMSWITCHC} batch --jobs ${WORK_DIR}/${name}.jobs
                            --out-dir ${WORK_DIR}/${name} --cache-dir ${cache}
                    RESULT_VARIABLE result
                    ERROR_VARIABLE err)
    if(NOT result EQUAL 0)
        message(FATAL_ERROR "decode batch ${name} failed (${result}):\n${err}")
    endif()
endfunction()

run_decode(kv128 128 ${WORK_DIR}/neighbor-cache)
run_decode(kv160 160 ${WORK_DIR}/neighbor-cache)
run_decode(kv160-cold 160 ${WORK_DIR}/neighbor-cold-cache)
file(READ ${WORK_DIR}/kv128/summary.json kv128_summary)
expect_summary("${kv128_summary}" 1 cache disk_neighbor_misses)
file(READ ${WORK_DIR}/kv160/summary.json kv160_summary)
expect_summary("${kv160_summary}" 1 cache disk_misses)
string(JSON neighbor_hits GET "${kv160_summary}" cache disk_neighbor_hits)
if(neighbor_hits LESS 1)
    message(FATAL_ERROR "KV 160 over KV 128's cache dir found no neighbor "
                        "(disk_neighbor_hits = ${neighbor_hits})")
endif()
set(report job000_llama2-7b_dynaplasia_cmswitch.json)
expect_same(${WORK_DIR}/kv160/${report} ${WORK_DIR}/kv160-cold/${report}
            "KV 160 neighbor recompile differs from cold")

# --- 7. single mode: a dropped store is not claimed as stored ---------

set(blocked_cache ${WORK_DIR}/blocked-cache)
file(MAKE_DIRECTORY ${blocked_cache}/${plan_key}.plan)
run_model(${WORK_DIR}/blocked.json ${blocked_cache}
          "plan cache miss; not stored \\(cold\\)" --model resnet18)
if(single_err MATCHES "; stored")
    message(FATAL_ERROR "dropped store reported as stored:\n${single_err}")
endif()
expect_same(${WORK_DIR}/cold.json ${WORK_DIR}/blocked.json
            "report after a dropped store differs")

# --- 8. single mode names its lookup tier -----------------------------

set(single_neighbor ${WORK_DIR}/single-neighbor-cache)
set(decode --model llama2-7b --layers 2 --decode)
run_model(${WORK_DIR}/single-kv128.json ${single_neighbor}
          "plan cache miss; stored [0-9a-f]+ in .* \\(cold\\)" ${decode} 128)
run_model(${WORK_DIR}/single-kv160.json ${single_neighbor}
          "plan cache miss; stored [0-9a-f]+ in .* \\(neighbor\\)"
          ${decode} 160)
run_model(${WORK_DIR}/single-kv160-cold.json ${WORK_DIR}/single-cold-cache
          "plan cache miss; stored [0-9a-f]+ in .* \\(cold\\)" ${decode} 160)
expect_same(${WORK_DIR}/single-kv160.json ${WORK_DIR}/single-kv160-cold.json
            "single-mode KV 160 neighbor compile differs from cold")
run_cache(single_stats stats --cache-dir ${single_neighbor})
expect_json("${single_stats}" 1 neighbor_hits)
expect_json("${single_stats}" 1 neighbor_misses)
expect_json("${single_stats}" 2 stores)

message(STATUS "cache_smoke: single-mode warm start, damaged-artifact "
               "recompile, sidecar stats, ${job_count}-job warm batch, "
               "gc/verify lifecycle, cross-process neighbor warm start, "
               "dropped-store reporting and single-mode lookup tiers all "
               "check out")

# Success: leave nothing behind (the guard at the top handles the
# leftovers of *failed* runs).
file(REMOVE_RECURSE "${WORK_DIR}")
