type entry = Case of Racey.case | Parsec of Parsec.info * Arde.Types.program

let find name =
  match Racey.find name with
  | Some c -> Some (Case c)
  | None -> (
      match Parsec.find name with
      | Some (info, p) -> Some (Parsec (info, p))
      | None -> None)
