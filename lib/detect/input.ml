type t =
  | Text of string
  | Program of Arde_tir.Types.program
  | Recorded_trace of Recorded.t
