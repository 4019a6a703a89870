# bench_check: schema-validates the committed bench baselines under
# bench/baselines/ and — when a bench has been re-run in this build tree
# (a fresh BENCH_*.json under ${BINARY_DIR}/bench) — compares its
# deterministic metrics against the baseline, failing on a >25%
# regression. Wall-clock metrics are never compared (host time is
# noisy); every compared metric is a simulated-clock figure or a work
# counter (E16/E17's scheduler scan visits, E17's local SELECT count,
# E18's SQL bytes parsed, E19's page reads/writes and WAL appends), exact
# for a fixed seed. Baselines are the benches' `--quick`
# outputs; comparisons are guarded on the workload-scale fields, so a
# full-scale re-run simply skips entries whose scale differs from the
# baseline. No bench needs a manual re-run: the bench_e16_quick …
# bench_e20_quick ctest fixtures write fresh BENCH_*.json files before
# this check runs.
#
# Run via ctest: `ctest -L bench` (label `bench`; `ctest -R bench_check`
# pulls in the fixtures too). Invoked as
#   cmake -DSOURCE_DIR=... -DBINARY_DIR=... -P bench_check.cmake

if(NOT DEFINED SOURCE_DIR OR NOT DEFINED BINARY_DIR)
  message(FATAL_ERROR "bench_check: pass -DSOURCE_DIR and -DBINARY_DIR")
endif()

set(BASELINE_DIR "${SOURCE_DIR}/bench/baselines")
set(FRESH_DIR "${BINARY_DIR}/bench")
set(CHECK_FAILURES "")

# Records one failure and keeps going, so a single run reports them all.
macro(fail message)
  list(APPEND CHECK_FAILURES "${message}")
  message(STATUS "FAIL: ${message}")
endmacro()

# Reads baseline (required) and fresh (optional) copies of one file.
macro(load_pair filename base_var fresh_var)
  set(${base_var} "")
  set(${fresh_var} "")
  if(EXISTS "${BASELINE_DIR}/${filename}")
    file(READ "${BASELINE_DIR}/${filename}" ${base_var})
  else()
    fail("missing baseline bench/baselines/${filename}")
  endif()
  if(EXISTS "${FRESH_DIR}/${filename}")
    file(READ "${FRESH_DIR}/${filename}" ${fresh_var})
  endif()
endmacro()

# Schema: the member path (ARGN) must exist in ${json}.
macro(require filename json)
  string(JSON _value ERROR_VARIABLE _err GET "${json}" ${ARGN})
  if(_err)
    string(REPLACE ";" "." _path "${ARGN}")
    fail("${filename}: missing member ${_path}")
  endif()
endmacro()

# Sets ${skip_var} when the guard member (ARGN) differs between baseline
# and fresh — the two runs used different workload scales/modes, so
# their metrics are not comparable.
macro(guard filename base fresh skip_var)
  string(JSON _gb ERROR_VARIABLE _e1 GET "${base}" ${ARGN})
  string(JSON _gf ERROR_VARIABLE _e2 GET "${fresh}" ${ARGN})
  if(_e1 OR _e2 OR NOT _gb STREQUAL _gf)
    set(${skip_var} TRUE)
  endif()
endmacro()

# Fails when the fresh value of the integer metric at ARGN exceeds the
# baseline by more than 25%. Lower is better for every compared metric;
# improvements never fail. Zero baselines are skipped (no meaningful
# ratio).
macro(compare filename base fresh)
  string(JSON _b ERROR_VARIABLE _e1 GET "${base}" ${ARGN})
  string(JSON _f ERROR_VARIABLE _e2 GET "${fresh}" ${ARGN})
  if(NOT _e1 AND NOT _e2 AND _b GREATER 0)
    math(EXPR _limit "(${_b} * 5) / 4")
    if(_f GREATER _limit)
      string(REPLACE ";" "." _path "${ARGN}")
      fail("${filename}: ${_path} regressed ${_b} -> ${_f} (>25%)")
    endif()
  endif()
endmacro()

# -- E16 concurrency --------------------------------------------------------

load_pair(BENCH_concurrency.json base fresh)
if(base)
  require(BENCH_concurrency.json "${base}" bench)
  require(BENCH_concurrency.json "${base}" runs 0 sessions)
  require(BENCH_concurrency.json "${base}" runs 0 virtual_makespan_micros)
  require(BENCH_concurrency.json "${base}" runs 0 p50_makespan_micros)
  require(BENCH_concurrency.json "${base}" runs 0 p99_makespan_micros)
  require(BENCH_concurrency.json "${base}" runs 0 failures)
  require(BENCH_concurrency.json "${base}" runs 0 scan_visits)
  if(fresh)
    set(skip FALSE)
    guard(BENCH_concurrency.json "${base}" "${fresh}" skip runs 0 sessions)
    if(NOT skip)
      compare(BENCH_concurrency.json "${base}" "${fresh}"
              runs 0 virtual_makespan_micros)
      compare(BENCH_concurrency.json "${base}" "${fresh}"
              runs 0 p99_makespan_micros)
      # Live sessions the ready scan visited: a scan over finished or
      # unadmitted sessions grows with the batch instead.
      compare(BENCH_concurrency.json "${base}" "${fresh}"
              runs 0 scan_visits)
    endif()
  endif()
endif()

# -- E17 conflict-aware scheduling ------------------------------------------

load_pair(BENCH_conflict_sched.json base fresh)
if(base)
  require(BENCH_conflict_sched.json "${base}" bench)
  require(BENCH_conflict_sched.json "${base}" seed)
  foreach(run 0 1)
    require(BENCH_conflict_sched.json "${base}" runs ${run} conflict_aware)
    require(BENCH_conflict_sched.json "${base}" runs ${run}
            deadlock_victims)
    require(BENCH_conflict_sched.json "${base}" runs ${run}
            completion_makespan_micros)
    require(BENCH_conflict_sched.json "${base}" runs ${run} local_selects)
    require(BENCH_conflict_sched.json "${base}" runs ${run} scan_visits)
  endforeach()
  if(fresh)
    foreach(run 0 1)
      set(skip FALSE)
      guard(BENCH_conflict_sched.json "${base}" "${fresh}" skip
            runs ${run} sessions)
      guard(BENCH_conflict_sched.json "${base}" "${fresh}" skip
            runs ${run} conflict_aware)
      if(NOT skip)
        compare(BENCH_conflict_sched.json "${base}" "${fresh}"
                runs ${run} completion_makespan_micros)
        # One SELECT per seat subquery: per-row re-evaluation of the
        # §3.4 `(SELECT MIN(...))` multiplies this by the seat count.
        compare(BENCH_conflict_sched.json "${base}" "${fresh}"
                runs ${run} local_selects)
        compare(BENCH_conflict_sched.json "${base}" "${fresh}"
                runs ${run} scan_visits)
      endif()
    endforeach()
  endif()
endif()

# -- E18 distributed optimizer ----------------------------------------------

load_pair(BENCH_distopt.json base fresh)
if(base)
  require(BENCH_distopt.json "${base}" bench)
  foreach(run 0 1)
    require(BENCH_distopt.json "${base}" runs ${run} cost_based)
    require(BENCH_distopt.json "${base}" runs ${run} bytes_moved)
    require(BENCH_distopt.json "${base}" runs ${run} makespan_micros)
    require(BENCH_distopt.json "${base}" runs ${run} sql_bytes_parsed)
  endforeach()
  if(fresh)
    foreach(run 0 1)
      set(skip FALSE)
      guard(BENCH_distopt.json "${base}" "${fresh}" skip runs ${run} big_rows)
      guard(BENCH_distopt.json "${base}" "${fresh}" skip
            runs ${run} cost_based)
      if(NOT skip)
        compare(BENCH_distopt.json "${base}" "${fresh}"
                runs ${run} bytes_moved)
        compare(BENCH_distopt.json "${base}" "${fresh}"
                runs ${run} makespan_micros)
        # SQL text the sites parsed for the join: rows a TRANSFER ships
        # as INSERT text instead of typed values multiply it.
        compare(BENCH_distopt.json "${base}" "${fresh}"
                runs ${run} sql_bytes_parsed)
      endif()
    endforeach()
  endif()
endif()

# -- E19 storage engine -----------------------------------------------------

load_pair(BENCH_storage.json base fresh)
if(base)
  require(BENCH_storage.json "${base}" bench)
  require(BENCH_storage.json "${base}" rows)
  require(BENCH_storage.json "${base}" page_reads)
  require(BENCH_storage.json "${base}" page_writes)
  require(BENCH_storage.json "${base}" wal_appends)
  require(BENCH_storage.json "${base}" recovered)
  if(fresh)
    set(skip FALSE)
    guard(BENCH_storage.json "${base}" "${fresh}" skip rows)
    guard(BENCH_storage.json "${base}" "${fresh}" skip pool_pages)
    if(NOT skip)
      compare(BENCH_storage.json "${base}" "${fresh}" page_reads)
      compare(BENCH_storage.json "${base}" "${fresh}" page_writes)
      compare(BENCH_storage.json "${base}" "${fresh}" wal_appends)
    endif()
  endif()
endif()

# -- E20 federation monitor -------------------------------------------------

load_pair(BENCH_monitor.json base fresh)
if(base)
  require(BENCH_monitor.json "${base}" bench)
  require(BENCH_monitor.json "${base}" seed)
  require(BENCH_monitor.json "${base}" overhead sessions)
  require(BENCH_monitor.json "${base}" overhead virtual_makespan_micros)
  require(BENCH_monitor.json "${base}" overhead windows_closed)
  foreach(run 0 1)
    require(BENCH_monitor.json "${base}" chaos ${run} adaptive)
    require(BENCH_monitor.json "${base}" chaos ${run}
            completion_makespan_micros)
    require(BENCH_monitor.json "${base}" chaos ${run} retried_sessions)
  endforeach()
  # The headline claim of E20 is encoded in the baseline itself:
  # adaptive admission must not be worse than fixed admission.
  string(JSON _fixed GET "${base}" chaos 0 completion_makespan_micros)
  string(JSON _adaptive GET "${base}" chaos 1 completion_makespan_micros)
  if(_adaptive GREATER _fixed)
    fail("BENCH_monitor.json baseline: adaptive completion makespan "
         "${_adaptive} worse than fixed ${_fixed}")
  endif()
  if(fresh)
    set(skip FALSE)
    guard(BENCH_monitor.json "${base}" "${fresh}" skip overhead sessions)
    if(NOT skip)
      compare(BENCH_monitor.json "${base}" "${fresh}"
              overhead virtual_makespan_micros)
    endif()
    foreach(run 0 1)
      set(skip FALSE)
      guard(BENCH_monitor.json "${base}" "${fresh}" skip
            chaos ${run} sessions)
      guard(BENCH_monitor.json "${base}" "${fresh}" skip
            chaos ${run} adaptive)
      if(NOT skip)
        compare(BENCH_monitor.json "${base}" "${fresh}"
                chaos ${run} completion_makespan_micros)
      endif()
    endforeach()
  endif()
endif()

# -- verdict ----------------------------------------------------------------

if(CHECK_FAILURES)
  list(LENGTH CHECK_FAILURES n)
  message(FATAL_ERROR "bench_check: ${n} failure(s); see FAIL lines above")
endif()
message(STATUS "bench_check: all baselines valid, no regressions")
