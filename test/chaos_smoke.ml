(* Seeded chaos campaign over the quick catalog, wired into the
   default test alias: workers are SIGKILLed mid-group, solver calls
   stall, cache entries and frame blobs are torn and bit-rotted — and
   the sweep must still produce verdicts identical to an undisturbed
   baseline, with every damaged cache file quarantined.  The schedule is a pure
   function of the seed, so a failure here replays exactly. *)

open Ilv_designs
open Ilv_engine

let fail fmt = Format.kasprintf (fun s -> prerr_endline s; exit 1) fmt

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error _ -> ()

let () =
  let scratch =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "ilv-chaos-smoke-%d" (Unix.getpid ()))
  in
  let suites =
    List.map
      (fun (d : Design.t) ->
        ( d.Design.name,
          fun () ->
            Engine.jobs_of ~name:d.Design.name d.Design.module_ila
              d.Design.rtl
              ~refmap_for:(fun port -> d.Design.refmap_for d.Design.rtl port)
              () ))
      Catalog.quick
  in
  let r = Chaos.run ~jobs:2 ~seed:7 ~scratch suites in
  Format.printf "%a@." Chaos.pp_report r;
  rm_rf scratch;
  if r.Chaos.kills = 0 then
    fail "chaos smoke: seed 7 injected no worker kills — harness inert";
  if r.Chaos.stalls = 0 then
    fail "chaos smoke: seed 7 injected no solver stalls — harness inert";
  if r.Chaos.corrupted = 0 then
    fail "chaos smoke: no cache files were damaged — harness inert";
  if r.Chaos.corrupted_frames = 0 then
    fail "chaos smoke: seed 7 damaged no frame blob — harness inert";
  if r.Chaos.quarantined < r.Chaos.corrupted then
    fail "chaos smoke: %d files damaged but only %d quarantined"
      r.Chaos.corrupted r.Chaos.quarantined;
  if not (Chaos.passed r) then fail "chaos smoke: campaign FAILED"
