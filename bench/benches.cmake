# Experiment harnesses: one binary per table/figure of the paper, plus
# ablations and a kernel micro-benchmark. Binaries land in build/bench/.
function(mg_add_bench name)
  add_executable(${name} ${CMAKE_SOURCE_DIR}/bench/${name}.cpp)
  target_link_libraries(${name} PRIVATE
    mg_core mg_fault mg_npb mg_apps mg_vmpi mg_grid mg_gis mg_vos mg_net mg_sim
    mg_util mg_warnings)
  set_target_properties(${name} PROPERTIES RUNTIME_OUTPUT_DIRECTORY ${CMAKE_BINARY_DIR}/bench)
endfunction()

mg_add_bench(bench_fig05_memory)
mg_add_bench(bench_fig06_cpu)
mg_add_bench(bench_fig07_quanta)
mg_add_bench(bench_fig08_network)
mg_add_bench(bench_fig10_npb)
mg_add_bench(bench_fig11_quanta_sweep)
mg_add_bench(bench_fig12_cpu_scaling)
mg_add_bench(bench_fig14_vbns)
mg_add_bench(bench_fig15_emulation_rate)
mg_add_bench(bench_fig16_cactus)
mg_add_bench(bench_fig17_autopilot)
mg_add_bench(bench_ablation_netmodel)
mg_add_bench(bench_ablation_collectives)
mg_add_bench(bench_fault_resilience)

add_executable(bench_kernel_perf ${CMAKE_SOURCE_DIR}/bench/bench_kernel_perf.cpp)
target_link_libraries(bench_kernel_perf PRIVATE mg_sim mg_net mg_util benchmark::benchmark
  mg_warnings)
set_target_properties(bench_kernel_perf PROPERTIES RUNTIME_OUTPUT_DIRECTORY ${CMAKE_BINARY_DIR}/bench)

# Paper gates: a bench whose shape check fails exits non-zero.
add_test(NAME paper.fig17_autopilot COMMAND bench_fig17_autopilot)
set_tests_properties(paper.fig17_autopilot PROPERTIES LABELS paper TIMEOUT 120)
foreach(bench fig05_memory fig06_cpu fig07_quanta fig08_network fig10_npb fig11_quanta_sweep
        fig12_cpu_scaling fig14_vbns fig15_emulation_rate fig16_cactus ablation_netmodel
        ablation_collectives fault_resilience)
  add_test(NAME paper.${bench} COMMAND bench_${bench})
  # Generous for the sanitizer job; a Release build takes <= 5 s per bench.
  set_tests_properties(paper.${bench} PROPERTIES LABELS paper TIMEOUT 600)
endforeach()
