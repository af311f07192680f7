(* The fuzz driver: generate → render → oracle battery → (on violation)
   shrink → write repro.

   Per-program seeds are derived from (run seed, index) with an
   independent splitmix stream, so [--seed N --count K] is fully
   deterministic and any single program can be regenerated from the
   repro's [derived_seed] alone. *)

type failure_report = {
  fr_index : int;
  fr_oracle : string;
  fr_detail : string;
  fr_statements : int;  (* after shrinking *)
  fr_repro_path : string option;
}

type report = {
  seed : int;
  count : int;
  max_size : int;
  fault : Oracle.fault;
  edits : int option;  (* per-program edit-chain length, when enabled *)
  programs_run : int;
  failures : failure_report list;
  tiers_exercised : string list;
      (* update-path tiers the edit chains reached, ladder order;
         [] when edits are off *)
}

(* Edits per program when [--edits] is on: enough to chain a patch onto
   an already-patched graph, small enough to keep 200 programs cheap. *)
let edits_per_program = 3

(* The engine's full update ladder.  An unfiltered [--edits] run of at
   least [tier_coverage_min_programs] programs must exercise every tier
   at least once, or the run fails with an [edit_tier_coverage]
   violation: a tier the fuzzer can no longer reach is a tier nothing
   is testing.  Shorter runs (debugging) and kind-filtered runs (which
   deliberately exclude tiers) skip the check. *)
let all_tiers = [ "noop"; "patched"; "resolved-incremental"; "rebuilt" ]

let tier_coverage_min_programs = 25

let violations_of ~(edit_kinds : Gen_tj.edit_kind list option) ~fault
    ~(edits : int option) ~(derived_seed : int) ~(model : Gen_tj.model)
    ~(r : Gen_tj.rendered) : Oracle.violation list * string list =
  let base =
    try
      Oracle.battery ~fault ~src:r.Gen_tj.src ~seed_lines:r.Gen_tj.seed_lines ()
    with e ->
      (* An escaped exception is itself an oracle violation: every layer
         under the battery promises clean error values. *)
      [ { Oracle.oracle = "exception"; detail = Printexc.to_string e } ]
  in
  match edits with
  | None -> (base, [])
  | Some n ->
    (* The edit stream is derived from the per-program seed alone, so a
       shrink candidate replays the SAME edit decisions against the
       smaller model. *)
    let ed, tiers =
      try
        Oracle.edit_battery ?kinds:edit_kinds
          ~rng:(Fuzz_rng.make (derived_seed lxor 0x45644954))
          ~model ~edits:n ()
      with e ->
        ( [ { Oracle.oracle = "edit_exception"; detail = Printexc.to_string e } ],
          [] )
    in
    (base @ ed, tiers)

let run ?(fault = Oracle.No_fault) ?(corpus_dir : string option)
    ?(progress : (int -> unit) option) ?(edits = false)
    ?(edit_kinds : Gen_tj.edit_kind list option) ~(seed : int) ~(count : int)
    ~(max_size : int) () : report =
  let edits = if edits then Some edits_per_program else None in
  let failures = ref [] in
  let tiers_seen = ref [] in
  let note_tiers ts =
    List.iter
      (fun t -> if not (List.mem t !tiers_seen) then tiers_seen := t :: !tiers_seen)
      ts
  in
  for index = 0 to count - 1 do
    (match progress with Some f -> f index | None -> ());
    let derived_seed = Fuzz_rng.derive ~seed ~index in
    let model = Gen_tj.gen ~seed:derived_seed ~max_size in
    let rendered = Gen_tj.render model in
    let vs, tiers =
      violations_of ~edit_kinds ~fault ~edits ~derived_seed ~model ~r:rendered
    in
    note_tiers tiers;
    match vs with
    | [] -> ()
    | first :: _ ->
      (* Shrink while the SAME oracle keeps failing. *)
      let still_failing m =
        let r = Gen_tj.render m in
        List.exists
          (fun v -> v.Oracle.oracle = first.Oracle.oracle)
          (fst (violations_of ~edit_kinds ~fault ~edits ~derived_seed ~model:m ~r))
      in
      let small = Gen_tj.shrink model ~still_failing in
      let rs = Gen_tj.render small in
      (* Re-run to capture the (possibly re-worded) detail on the shrunk
         program; the oracle name is stable by construction. *)
      let detail =
        match
          List.find_opt
            (fun v -> v.Oracle.oracle = first.Oracle.oracle)
            (fst
               (violations_of ~edit_kinds ~fault ~edits ~derived_seed
                  ~model:small ~r:rs))
        with
        | Some v -> v.Oracle.detail
        | None -> first.Oracle.detail
      in
      let is_edit_oracle =
        String.length first.Oracle.oracle >= 5
        && String.sub first.Oracle.oracle 0 5 = "edit_"
      in
      let repro_path =
        match corpus_dir with
        (* Edit-oracle violations have no standalone source repro: the
           failing input is (program, edit chain), reproducible from
           [fuzz --edits --seed N] via the derived seed in the detail. *)
        | _ when is_edit_oracle -> None
        | None -> None
        | Some dir ->
          Some
            (Repro.save ~dir
               { Repro.seed; index; derived_seed; fault;
                 oracle = first.Oracle.oracle; detail;
                 statements = rs.Gen_tj.stmt_count;
                 seed_lines = rs.Gen_tj.seed_lines;
                 edit_kinds =
                   (match (edits, edit_kinds) with
                   | None, _ -> []
                   | Some _, None ->
                     List.map Gen_tj.edit_kind_to_string Gen_tj.all_edit_kinds
                   | Some _, Some ks ->
                     List.map Gen_tj.edit_kind_to_string ks);
                 program = rs.Gen_tj.src })
      in
      failures :=
        { fr_index = index;
          fr_oracle = first.Oracle.oracle;
          fr_detail = detail;
          fr_statements = rs.Gen_tj.stmt_count;
          fr_repro_path = repro_path }
        :: !failures
  done;
  (* Canonical ladder order, restricted to what was actually seen. *)
  let tiers_exercised =
    List.filter (fun t -> List.mem t !tiers_seen) all_tiers
  in
  let failures = ref (List.rev !failures) in
  (match edits with
  | Some _ when edit_kinds = None && count >= tier_coverage_min_programs ->
    let missing =
      List.filter (fun t -> not (List.mem t tiers_exercised)) all_tiers
    in
    if missing <> [] then
      failures :=
        !failures
        @ [ { fr_index = -1;
              fr_oracle = "edit_tier_coverage";
              fr_detail =
                Printf.sprintf
                  "update tiers never exercised across %d edit chains: %s"
                  count (String.concat ", " missing);
              fr_statements = 0;
              fr_repro_path = None } ]
  | _ -> ());
  { seed; count; max_size; fault; edits; programs_run = count;
    failures = !failures; tiers_exercised }

(* The one-line summary the CI step greps.  Keep the "violations=" key
   stable: .github/workflows/ci.yml matches it verbatim.  The edits and
   tiers fields only appear when edits are enabled, so the historical
   format (which test_cli pins) is unchanged for plain runs.  CI greps
   the full 5-tier "tiers=" value on its --edits run. *)
let summary_line (r : report) : string =
  Printf.sprintf "fuzz: seed=%d count=%d max-size=%d fault=%s%s%s violations=%d"
    r.seed r.count r.max_size
    (Oracle.fault_to_string r.fault)
    (match r.edits with None -> "" | Some n -> Printf.sprintf " edits=%d" n)
    (match (r.edits, r.tiers_exercised) with
    | None, _ | _, [] -> ""
    | Some _, ts -> Printf.sprintf " tiers=%s" (String.concat "," ts))
    (List.length r.failures)
