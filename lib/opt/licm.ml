(* Loop-invariant code motion over loads, as a standalone TBAA client: RLE's
   Figure-6 hoister ({!Rle.hoist_loops}) offered only whole paths, with
   every oracle answer relied on logged under kind "licm". *)

let pass =
  { Pass.name = "licm";
    role = Pass.Transform;
    scope =
      Pass.Per_procedure
        (fun pc proc ->
          let hoisted =
            Rle.hoist_loops ?claims:pc.Pass.pc_claims ~kind:"licm"
              ~candidates:(fun ap -> [ ap ])
              ~fresh:pc.Pass.pc_fresh pc.Pass.pc_oracle pc.Pass.pc_modref proc
          in
          { Pass.stats = [ ("hoisted", hoisted) ];
            changed = hoisted > 0;
            mutated = hoisted > 0 }) }
