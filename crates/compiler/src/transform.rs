//! Pass 2: source rewriting (§3.4).
//!
//! Replaces each recognized segment with the Listing 2 runtime calls
//! (`mealib_acc_plan` / `mealib_acc_execute` / `mealib_acc_destroy`),
//! rewrites `malloc`/`free` of accelerator-visible buffers into
//! `mealib_mem_alloc`/`mealib_mem_free`, and prepends the generated TDL
//! strings as C constants.

use crate::analysis::TransformPlan;
use crate::ast::{Decl, Expr, Stmt, TranslationUnit, Type};

/// Applies the transform plan to the original unit, producing the
/// rewritten unit.
pub fn apply(unit: &TranslationUnit, plan: &TransformPlan) -> TranslationUnit {
    let mut out = Vec::new();

    // Preamble: TDL strings and plan handles.
    if !plan.tdl.is_empty() {
        out.push(Stmt::Comment(
            "generated by the MEALib source-to-source compiler".to_string(),
        ));
    }
    for (i, gen) in plan.tdl.iter().enumerate() {
        let flat = flatten_tdl(&gen.text);
        out.push(Stmt::Decl(Decl {
            ty: Type::Named("const char".into()).ptr(),
            name: format!("tdl_{i}"),
            init: Some(Expr::Str(flat)),
        }));
        out.push(Stmt::Decl(Decl {
            ty: Type::Named("acc_plan".into()),
            name: gen.plan_name.clone(),
            init: None,
        }));
    }

    for (idx, stmt) in unit.stmts.iter().enumerate() {
        // Is this statement consumed by a segment?
        if let Some(seg_pos) = plan.segments.iter().position(|s| s.consumed.contains(&idx)) {
            let seg = &plan.segments[seg_pos];
            if idx == seg.anchor {
                let gen = &plan.tdl[seg_pos];
                out.push(Stmt::Comment(format!(
                    "{} library call(s) compacted into one accelerator descriptor",
                    gen.calls_compacted
                )));
                out.push(Stmt::Expr(Expr::Assign {
                    lhs: Box::new(Expr::Ident(seg.plan_name.clone())),
                    rhs: Box::new(Expr::Call {
                        callee: "mealib_acc_plan".into(),
                        args: vec![
                            Expr::Ident(format!("tdl_{seg_pos}")),
                            Expr::Ident(seg.input.clone()),
                            Expr::Int(0),
                            Expr::Ident(seg.output.clone()),
                            Expr::Int(0),
                        ],
                    }),
                }));
                out.push(Stmt::Expr(Expr::Call {
                    callee: "mealib_acc_execute".into(),
                    args: vec![Expr::Ident(seg.plan_name.clone())],
                }));
                out.push(Stmt::Expr(Expr::Call {
                    callee: "mealib_acc_destroy".into(),
                    args: vec![Expr::Ident(seg.plan_name.clone())],
                }));
            }
            continue;
        }
        out.push(rewrite_stmt(stmt, plan));
    }

    TranslationUnit { stmts: out }
}

fn rewrite_stmt(stmt: &Stmt, plan: &TransformPlan) -> Stmt {
    match stmt {
        // A `#pragma mealib stack(N)` allocation block: the pragma has
        // done its job (recorded in `plan.placements`); emit only the
        // rewritten allocation.
        Stmt::Block(parts) => {
            if let [Stmt::Comment(text), inner @ Stmt::Expr(_)] = parts.as_slice() {
                if text.starts_with("#pragma mealib") {
                    return rewrite_stmt(inner, plan);
                }
            }
            Stmt::Block(parts.iter().map(|s| rewrite_stmt(s, plan)).collect())
        }
        Stmt::Expr(e) => Stmt::Expr(rewrite_expr(e, plan)),
        Stmt::Decl(Decl {
            ty,
            name,
            init: Some(init),
        }) => Stmt::Decl(Decl {
            ty: ty.clone(),
            name: name.clone(),
            init: Some(rewrite_expr_named(init, name, plan)),
        }),
        Stmt::For {
            pragma,
            init,
            cond,
            step,
            body,
        } => Stmt::For {
            pragma: pragma.clone(),
            init: init.clone(),
            cond: cond.clone(),
            step: step.clone(),
            body: Box::new(rewrite_stmt(body, plan)),
        },
        other => other.clone(),
    }
}

fn rewrite_expr(e: &Expr, plan: &TransformPlan) -> Expr {
    match e {
        Expr::Assign { lhs, rhs } => {
            let target = e.assign_target();
            let new_rhs = match target {
                Some(name) => rewrite_expr_named(rhs, name, plan),
                None => rewrite_expr(rhs, plan),
            };
            Expr::Assign {
                lhs: lhs.clone(),
                rhs: Box::new(new_rhs),
            }
        }
        Expr::Call { callee, args } if callee == "free" => {
            let is_accel = args
                .first()
                .and_then(Expr::base_ident)
                .is_some_and(|b| plan.accel_buffers.contains(b));
            if is_accel {
                Expr::Call {
                    callee: "mealib_mem_free".into(),
                    args: args.clone(),
                }
            } else {
                e.clone()
            }
        }
        other => other.clone(),
    }
}

/// Rewrites an initializer/assigned expression knowing which variable it
/// flows into (so `x = malloc(...)` can consult `x`'s accelerator use).
fn rewrite_expr_named(e: &Expr, target: &str, plan: &TransformPlan) -> Expr {
    match e {
        Expr::Call { callee, args }
            if callee == "malloc" && plan.accel_buffers.contains(target) =>
        {
            match plan.placements.get(target) {
                // Explicit placement: mealib_mem_alloc_on(size, stack).
                Some(stack) => {
                    let mut args = args.clone();
                    args.push(Expr::Int(*stack as i64));
                    Expr::Call {
                        callee: "mealib_mem_alloc_on".into(),
                        args,
                    }
                }
                None => Expr::Call {
                    callee: "mealib_mem_alloc".into(),
                    args: args.clone(),
                },
            }
        }
        other => rewrite_expr(other, plan),
    }
}

/// Collapses a multi-line TDL program into a single-line C string.
fn flatten_tdl(text: &str) -> String {
    text.split_whitespace().collect::<Vec<_>>().join(" ")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::analyze;
    use crate::lexer::tokenize;
    use crate::parser::parse;

    fn transform_src(src: &str) -> TranslationUnit {
        let unit = parse(tokenize(src).unwrap()).unwrap();
        let plan = analyze(&unit).unwrap();
        apply(&unit, &plan)
    }

    #[test]
    fn rewrites_malloc_and_free_of_accelerated_buffers() {
        let out = transform_src(
            "float *x; float *other;\n\
             x = malloc(sizeof(float) * 64);\n\
             other = malloc(64);\n\
             y = malloc(sizeof(float) * 64);\n\
             cblas_saxpy(64, 1.0, x, 1, y, 1);\n\
             free(x); free(other); free(y);",
        );
        let text = out.to_string();
        assert!(text.contains("x = mealib_mem_alloc(sizeof(float) * 64);"));
        assert!(text.contains("y = mealib_mem_alloc(sizeof(float) * 64);"));
        // The unrelated buffer keeps plain malloc/free.
        assert!(text.contains("other = malloc(64);"));
        assert!(text.contains("free(other);"));
        assert!(text.contains("mealib_mem_free(x);"));
        assert!(text.contains("mealib_mem_free(y);"));
    }

    #[test]
    fn emits_plan_execute_destroy_triple() {
        let out = transform_src("cblas_saxpy(64, 1.0, x, 1, y, 1);");
        let text = out.to_string();
        assert!(text.contains("const char* tdl_0 = \"PASS in=x out=y {"));
        assert!(text.contains("acc_plan plan_0;"));
        assert!(text.contains("plan_0 = mealib_acc_plan(tdl_0, x, 0, y, 0);"));
        assert!(text.contains("mealib_acc_execute(plan_0);"));
        assert!(text.contains("mealib_acc_destroy(plan_0);"));
        // The original library call is gone.
        assert!(!text.contains("cblas_saxpy"));
    }

    #[test]
    fn embedded_tdl_string_reparses() {
        let out = transform_src(
            "plan_a = fftwf_plan_guru_dft(0, NULL, 3, hm1, a, b, FWD, FLAGS);\n\
             plan_b = fftwf_plan_guru_dft(1, dims, 2, hm2, b, c, FWD, FLAGS);\n\
             fftwf_execute(plan_a);\nfftwf_execute(plan_b);",
        );
        let text = out.to_string();
        let start = text.find("tdl_0 = \"").expect("tdl string present") + 9;
        let end = text[start..].find("\";").expect("closing quote") + start;
        let tdl_text = text[start..end].replace("\\\"", "\"");
        let program = mealib_tdl::parse(&tdl_text).expect("embedded TDL must parse");
        assert_eq!(program.total_invocations(), Some(2));
    }

    #[test]
    fn consumed_statements_disappear() {
        let out = transform_src(
            "plan_a = fftwf_plan_guru_dft(1, dims, 2, hm, a, b, FWD, FLAGS);\n\
             fftwf_execute(plan_a);",
        );
        let text = out.to_string();
        assert!(!text.contains("fftwf_plan_guru_dft"));
        assert!(!text.contains("fftwf_execute"));
        assert!(text.contains("mealib_acc_execute(plan_0);"));
    }

    #[test]
    fn untouched_code_passes_through() {
        let out = transform_src("int n = 4;\nhelper(n);\nfor (i = 0; i < n; ++i) g(i);");
        let text = out.to_string();
        assert!(text.contains("int n = 4;"));
        assert!(text.contains("helper(n);"));
        assert!(text.contains("for (i = 0; i < n; ++i)"));
    }

    #[test]
    fn placement_pragma_rewrites_to_alloc_on() {
        let out = transform_src(
            "#pragma mealib stack(1)\n             x = malloc(sizeof(float) * 64);\n             y = malloc(sizeof(float) * 64);\n             cblas_saxpy(64, 1.0, x, 1, y, 1);",
        );
        let text = out.to_string();
        assert!(
            text.contains("x = mealib_mem_alloc_on(sizeof(float) * 64, 1);"),
            "{text}"
        );
        assert!(text.contains("y = mealib_mem_alloc(sizeof(float) * 64);"));
        assert!(!text.contains("#pragma mealib"), "pragma consumed");
    }

    #[test]
    fn flatten_produces_single_line() {
        let flat = flatten_tdl("PASS in=a out=b {\n    COMP FFT params=\"f\"\n}\n");
        assert!(!flat.contains('\n'));
        assert!(mealib_tdl::parse(&flat).is_ok());
    }
}
