# Golden test for the stap CLI: runs every deterministic command on a copy
# of examples/data and on `stap family` output, and compares stdout and the
# exit code with tests/golden/cli/<case>.txt (stdout bytes, then a final
# "[exit N]" line). stderr (usage text, error messages) is not compared.
# Nondeterministic commands (sample's random seed, explain's wall-clock
# column) pin the exit code only; their golden holds just "[exit N]".
#
#   cmake -DSTAP=<stap binary> -DDATA=<examples/data>
#         -DGOLDEN=<tests/golden/cli> -DWORK=<scratch dir>
#         [-DUPDATE=ON] -P tests/cli/golden.cmake
#
# UPDATE=ON rewrites the goldens from the binary instead of comparing.
# Every command runs inside WORK with relative paths, so no output depends
# on where the tree is checked out.
cmake_minimum_required(VERSION 3.16)

foreach(var STAP DATA GOLDEN WORK)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "golden.cmake: -D${var}=... is required")
  endif()
endforeach()

file(REMOVE_RECURSE "${WORK}")
file(COPY "${DATA}/" DESTINATION "${WORK}")
file(WRITE "${WORK}/bad.xml" "<library><book><chapter/></book></library>\n")
file(WRITE "${WORK}/response.xml"
     "<response><payload><record/><record/></payload>"
     "<status><done/></status></response>\n")

# golden(<case> <stdout|exit> <stap args...>)
function(golden name mode)
  execute_process(COMMAND "${STAP}" ${ARGN}
                  WORKING_DIRECTORY "${WORK}"
                  OUTPUT_VARIABLE out ERROR_VARIABLE err
                  RESULT_VARIABLE code)
  if(mode STREQUAL "exit")
    set(out "")
  endif()
  set(actual "${out}[exit ${code}]\n")
  set(file "${GOLDEN}/${name}.txt")
  if(UPDATE)
    file(WRITE "${file}" "${actual}")
    return()
  endif()
  if(NOT EXISTS "${file}")
    message(SEND_ERROR "${name}: missing golden ${file}")
    return()
  endif()
  file(READ "${file}" expected)
  if(NOT actual STREQUAL expected)
    file(WRITE "${WORK}/${name}.actual" "${actual}")
    message(SEND_ERROR "${name}: `stap ${ARGN}` differs from ${file} "
                       "(actual output in ${WORK}/${name}.actual)\n"
                       "stderr: ${err}")
  endif()
endfunction()

# Generates a family member into WORK/<file> (also pinned as a golden).
function(family file name n)
  golden(family_${name} stdout family ${name} ${n})
  execute_process(COMMAND "${STAP}" family ${name} ${n}
                  WORKING_DIRECTORY "${WORK}"
                  OUTPUT_FILE "${WORK}/${file}")
endfunction()

family(t32.stap theorem32 3)
family(t36a.stap theorem36a 3)
family(t36b.stap theorem36b 3)
family(t38a.stap theorem38a 3)
family(t38b.stap theorem38b 3)
family(t43a.stap theorem43a 3)
family(t43b.stap theorem43b 3)
family(t411.stap theorem411 3)
family(counted.stap counted 2)

golden(check_library_v1 stdout check library_v1.stap)
golden(check_relaxng stdout check relaxng_style.stap)
golden(check_t32 stdout check t32.stap)
golden(check_xsd_catalog stdout check xsd/catalog.xsd)
golden(check_counted stdout check counted.stap)

golden(minimize_library_v2 stdout minimize library_v2.stap)
golden(minimize_xsd_article stdout minimize xsd/article.xsd)
golden(minimize_counted stdout minimize counted.stap)

golden(approx_relaxng stdout approx relaxng_style.stap)
golden(approx_t32 stdout approx t32.stap)
golden(approx_docbook stdout approx docbook_lite.stap)
golden(approx_flags_after_command stdout
       approx relaxng_style.stap --max-states=1000000 --metrics-json=m.json)

golden(merge_library stdout merge library_v1.stap library_v2.stap)
golden(merge_t36 stdout merge t36a.stap t36b.stap)
golden(intersect_library stdout intersect library_v1.stap library_v2.stap)
golden(intersect_t38 stdout intersect t38a.stap t38b.stap)
golden(diff_library stdout diff library_v2.stap library_v1.stap)
golden(diff_t36 stdout diff t36a.stap t36b.stap)
golden(complement_library_v1 stdout complement library_v1.stap)
golden(complement_t38a stdout complement t38a.stap)
golden(lower_t43 stdout lower t43a.stap t43b.stap)
golden(lower_library stdout lower library_v1.stap library_v2.stap)

golden(included_yes stdout included library_v1.stap library_v2.stap)
golden(included_no stdout included library_v2.stap library_v1.stap)
golden(included_non_single_type_first stdout
       included relaxng_style.stap xsd/article.xsd)
golden(witness_found stdout witness library_v2.stap library_v1.stap)
golden(witness_none stdout witness library_v1.stap library_v2.stap)
golden(witness_t36 stdout witness t36a.stap t36b.stap)
golden(report_library stdout report library_v1.stap library_v2.stap)
golden(report_t38 stdout report t38a.stap t38b.stap)

golden(count_library_v1 stdout count library_v1.stap 3 3)
golden(count_docbook stdout count docbook_lite.stap 5 4)
golden(count_jats stdout count jats_lite.stap 5 4)
golden(count_t36a stdout count t36a.stap 5 4)
golden(count_xsd_recipe stdout count xsd/recipe.xsd 6 5)

golden(measure_library_v1 stdout measure library_v1.stap --depth=3)
golden(measure_relaxng_json stdout measure relaxng_style.stap --json)
golden(measure_t32_upper stdout measure t32.stap --upper --depth=4 --width=3)
golden(measure_t32_lower_json stdout
       measure t32.stap --lower --depth=4 --width=3 --json)
golden(measure_counted_both stdout
       measure counted.stap --both --depth=3 --width=5)

golden(export_library_v1 stdout export library_v1.stap)
golden(export_library_v1_repair_upa stdout
       export library_v1.stap --repair-upa)
golden(export_jats stdout export jats_lite.stap)
golden(export_counted_repair_upa stdout export counted.stap --repair-upa)

foreach(xsd article catalog purchase_order recipe)
  golden(import_${xsd} stdout import xsd/${xsd}.xsd)
endforeach()

golden(types_library_v1 stdout types library_v1.stap catalog.xml)
golden(types_invalid stdout types library_v1.stap bad.xml)
golden(types_relaxng stdout types relaxng_style.stap response.xml)
golden(types_undeclared stdout types relaxng_style.stap catalog.xml)
golden(validate_non_single_type stdout
       validate relaxng_style.stap response.xml)

golden(validate_single stdout validate library_v1.stap catalog.xml)
golden(validate_single_invalid stdout validate library_v1.stap bad.xml)
golden(validate_batch stdout
       --jobs=1 validate library_v1.stap catalog.xml bad.xml missing.xml)
golden(validate_batch_jobs_after stdout
       validate library_v2.stap catalog.xml catalog.xml --jobs=1)
golden(compile stdout compile library_v1.stap -o library_v1.stapc)
golden(validate_artifact stdout validate library_v1.stapc catalog.xml)

golden(sample exit sample library_v1.stap 3)
golden(explain exit explain relaxng_style.stap)
golden(explain_schema_guided exit explain relaxng_style.stap --schema-guided)

# Error paths: stdout stays empty; the usage text goes to stderr.
golden(no_command stdout)
golden(unknown_command stdout frobnicate library_v1.stap)
golden(check_wrong_arity stdout check)
golden(merge_wrong_arity stdout merge library_v1.stap)
golden(family_wrong_arity stdout family)
golden(jobs_not_a_number stdout
       --jobs=abc validate library_v1.stap catalog.xml)
golden(budget_not_a_number stdout --budget-ms=x approx library_v1.stap)
golden(serve_port_out_of_range stdout serve --port=70000)
golden(serve_unknown_flag stdout serve --bogus)
golden(top_without_port stdout top)
golden(export_unknown_flag stdout export library_v1.stap --bogus)
golden(explain_unknown_flag stdout explain library_v1.stap --bogus)
golden(measure_unknown_flag stdout measure library_v1.stap --bogus)
golden(measure_depth_out_of_range stdout measure library_v1.stap --depth=0)
golden(compile_missing_o stdout compile library_v1.stap out.stapc)
golden(sample_garbage_count stdout sample library_v1.stap abc)
golden(count_garbage_width stdout count library_v1.stap 3 4x)
golden(family_unknown stdout family nosuch 3)
golden(family_garbage_size stdout family theorem32 -2)
golden(minimize_non_single_type stdout minimize relaxng_style.stap)
golden(merge_non_single_type stdout merge relaxng_style.stap library_v1.stap)
golden(count_non_single_type stdout count relaxng_style.stap 3 3)
golden(missing_schema stdout approx no_such_file.stap)
golden(approx_state_cap stdout --max-states=1 approx t32.stap)
