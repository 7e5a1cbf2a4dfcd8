(* The on-disk request spool and crash-bundle store.  See spool.mli. *)

module J = Arde.Json

type t = { root : string; mutable seq : int }

let bundle_dir t = Filename.concat t.root "bundles"

let mkdir_p path =
  let rec go path =
    if path <> "" && path <> "/" && not (Sys.file_exists path) then begin
      go (Filename.dirname path);
      try Unix.mkdir path 0o700
      with Unix.Unix_error (EEXIST, _, _) -> ()
    end
  in
  go path

let create ~root =
  match
    mkdir_p root;
    mkdir_p (Filename.concat root "bundles")
  with
  | () -> Ok { root; seq = 0 }
  | exception Unix.Unix_error (err, fn, arg) ->
      Error
        (Printf.sprintf "spool %s: %s %s: %s" root fn arg
           (Unix.error_message err))

let root t = t.root

let journal_path t ~worker =
  Filename.concat t.root (Printf.sprintf "worker-%d.journal.json" worker)

let schema = "arde-crash-bundle/1"

(* The journal is written on EVERY run request, so its write must not
   re-serialize the request: the file is one small JSON header line
   followed by the raw request bytes exactly as they arrived on the
   public socket.  Only {!seal} — the crash path — ever parses them. *)
let journal t ~worker ~pid ~digest ~request =
  let header =
    J.Obj
      [
        ("schema", J.String schema);
        ("worker", J.Int worker);
        ("pid", J.Int pid);
        ("digest", J.String digest);
        ("received_at", J.Float (Unix.gettimeofday ()));
      ]
  in
  Util.write_file_atomic (journal_path t ~worker)
    (J.to_string header ^ "\n" ^ request)

let clear t ~worker =
  try Sys.remove (journal_path t ~worker) with Sys_error _ -> ()

let read_journal t ~worker =
  match Util.read_file (journal_path t ~worker) with
  | Error _ -> None
  | Ok text -> (
      match String.index_opt text '\n' with
      | None -> None
      | Some nl -> (
          let header = String.sub text 0 nl in
          let raw =
            String.sub text (nl + 1) (String.length text - nl - 1)
          in
          (* The worker journals only requests it has already parsed, so
             the request embeds as JSON and the bundle stays readable. *)
          match (J.parse header, J.parse raw) with
          | Ok (J.Obj fields), Ok request ->
              Some (J.Obj (fields @ [ ("request", request) ]))
          | _ -> None))

let seal t ~worker ~reason =
  match read_journal t ~worker with
  | None -> Ok None
  | Some entry ->
      t.seq <- t.seq + 1;
      let sealed_at = Unix.gettimeofday () in
      let tail =
        [ ("crash_reason", J.String reason); ("sealed_at", J.Float sealed_at) ]
      in
      let bundle =
        match entry with
        | J.Obj fields -> J.Obj (fields @ tail)
        | other ->
            J.Obj ((("schema", J.String schema) :: ("journal", other) :: tail))
      in
      let name =
        Printf.sprintf "crash-%.0f-w%d-%d.json" (sealed_at *. 1000.) worker
          t.seq
      in
      let path = Filename.concat (bundle_dir t) name in
      (match Util.write_file_atomic path (J.to_string ~minify:false bundle) with
      | Ok () ->
          clear t ~worker;
          Ok (Some path)
      | Error e -> Error e)

let bundles t =
  match Sys.readdir (bundle_dir t) with
  | exception Sys_error _ -> []
  | names ->
      let l =
        Array.to_list names
        |> List.filter (fun n -> Filename.check_suffix n ".json")
        |> List.map (fun n -> Filename.concat (bundle_dir t) n)
      in
      List.sort compare l

let load path =
  match Util.read_file path with
  | Error e -> Error e
  | Ok text -> (
      match J.parse_checked text with
      | Error e -> Error (path ^ ": " ^ J.error_to_string e)
      | Ok j -> (
          match Option.bind (J.member "schema" j) J.to_str with
          | Some s when s = schema -> Ok j
          | Some s ->
              Error
                (Printf.sprintf "%s: unknown bundle schema %S (want %S)" path
                   s schema)
          | None -> Error (path ^ ": not a crash bundle (no schema field)")))
