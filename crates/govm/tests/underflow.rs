//! Operand-stack underflow is a fatal, reported VM error — never a
//! silent `Nil`.
//!
//! The compiler never emits an unbalanced `Pop`, so the only way to hit
//! this is corrupted or hand-mutated bytecode; the VM must fail loudly
//! rather than compute on phantom values.

use std::rc::Rc;

use govm::{compile_sources, CompileOptions, Op, ProgContext, Vm, VmOptions};

fn underflowing_program() -> govm::Program {
    let src = r#"package p

func Main() int {
	x := 1
	return x + 1
}
"#;
    let mut prog = compile_sources(
        &[("m.go".into(), src.to_string())],
        &CompileOptions::default(),
    )
    .expect("compile");
    // Corrupt Main: a `Pop` before anything has been pushed.
    let f = prog.find_func("Main").expect("Main") as usize;
    prog.funcs[f].code.insert(0, Op::Pop);
    prog
}

#[test]
fn stack_underflow_is_fatal() {
    let prog = underflowing_program();
    let contexts = [
        ("fused", ProgContext::new(&prog)),
        ("unfused", ProgContext::without_fusion(&prog)),
    ];
    for (label, ctx) in contexts {
        let opts = VmOptions {
            seed: 7,
            ..VmOptions::default()
        };
        let r = Vm::with_context(&prog, opts, Rc::new(ctx)).run("Main", vec![]);
        let err = r
            .error
            .unwrap_or_else(|| panic!("{label}: underflow must abort the run"));
        let msg = format!("{err:?}");
        assert!(
            msg.contains("operand stack underflow"),
            "{label}: wrong error: {msg}"
        );
    }
}
