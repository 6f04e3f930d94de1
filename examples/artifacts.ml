(* Artifact generator: writes every machine-readable form of the case
   studies into ./artifacts — the shape of an actual release of the
   paper's models:

     artifacts/<design>/<port>.ila        textual ILA model
     artifacts/<design>/<port>.refmap     textual refinement map
     artifacts/<design>/rtl.v             Verilog-2001 export
     artifacts/<design>/<first-bug>.vcd   counterexample waveform (buggy designs)

   Run with: dune exec examples/artifacts.exe *)

open Ilv_core
open Ilv_designs

let write path contents =
  let oc = open_out path in
  output_string oc contents;
  close_out oc

let slug s =
  String.map
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' -> Char.lowercase_ascii c
      | _ -> '_')
    s

let () =
  let root = "artifacts" in
  if not (Sys.file_exists root) then Sys.mkdir root 0o755;
  let files = ref 0 in
  List.iter
    (fun (d : Design.t) ->
      let dir = Filename.concat root (slug d.Design.name) in
      if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
      let emit name contents =
        write (Filename.concat dir name) contents;
        incr files
      in
      List.iter
        (fun (port : Ila.t) ->
          emit (slug port.Ila.name ^ ".ila") (Ila_text.print port);
          emit
            (slug port.Ila.name ^ ".refmap")
            (Refmap_text.print (d.Design.refmap_for d.Design.rtl port.Ila.name)))
        d.Design.module_ila.Module_ila.ports;
      emit "rtl.v" (Ilv_rtl.Verilog.emit d.Design.rtl);
      (* a counterexample waveform for each published bug *)
      List.iter
        (fun (bug : Design.bug) ->
          let report = Design.verify_buggy d bug in
          match report.Verify.first_failure with
          | Some { verdict = Checker.Failed trace; _ } ->
            emit (slug bug.Design.bug_label ^ ".vcd") (Trace.to_vcd trace)
          | _ -> ())
        d.Design.bugs)
    (Catalog.quick @ Catalog.extensions);
  Format.printf "wrote %d artifact files under %s/@." !files root;
  (* prove the artifacts are not write-only: reload one of each kind *)
  let decoder = Option.get (Catalog.find "Decoder") in
  let reloaded_ila =
    Ila_text.parse
      (Ila_text.print (List.hd decoder.Design.module_ila.Module_ila.ports))
  in
  let reloaded_map =
    Refmap_text.parse ~ila:reloaded_ila ~rtl:decoder.Design.rtl
      (Refmap_text.print
         (decoder.Design.refmap_for decoder.Design.rtl "DECODER"))
  in
  let report, _ =
    Ilv_engine.Engine.verify ~name:"reloaded decoder"
      (Compose.union ~name:"DECODER" [ reloaded_ila ])
      decoder.Design.rtl
      ~refmap_for:(fun _ -> reloaded_map)
  in
  Format.printf "round-trip check: reloaded decoder model + map verify: %s@."
    (if Verify.proved report then "PROVED" else "FAILED");
  if not (Verify.proved report) then exit 1
