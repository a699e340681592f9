"""Canonical source printer. print(parse(print(parse(s)))) is a fixpoint."""
from __future__ import annotations

from typing import List

from . import syntax as S


def print_expr(e: S.Expr, prec: int = 0) -> str:
    if isinstance(e, S.IntLit):
        return str(e.value)
    if isinstance(e, S.FloatLit):
        return e.text
    if isinstance(e, S.Var):
        return e.name
    if isinstance(e, S.Index):
        return f"{e.name}[{print_expr(e.index)}]"
    if isinstance(e, S.Unary):
        s = f"{e.op}{print_expr(e.expr, 8)}"
        return s
    if isinstance(e, S.Binary):
        return _print_chain(e, prec, S.Binary, print_expr, S.EXPR_PREC)
    if isinstance(e, S.Ternary):
        s = (f"{print_expr(e.cond, 1)} ? {print_expr(e.then)}"
             f" : {print_expr(e.els)}")
        return f"({s})" if prec > 0 else s
    if isinstance(e, S.Cast):
        return f"({e.ctype}) {print_expr(e.expr, 8)}"
    if isinstance(e, S.Call):
        return f"{e.name}({', '.join(print_expr(a) for a in e.args)})"
    raise TypeError(f"unknown expression {e!r}")


def _print_chain(e, prec: int, kind: type, show, precs) -> str:
    """A binary node of class `kind` printed by `show` in a context of
    precedence prec, its operators ranked by `precs`: each left operand
    at its node's precedence, each right one a level above, a node
    parenthesized when below its context. The left spine of a chain such
    as a + b + c is walked with a loop, not a call per operand."""
    spine = []
    while type(e.left) is kind:
        spine.append(e)
        e = e.left
    p = precs[e.op]
    s = f"{show(e.left, p)} {e.op} {show(e.right, p + 1)}"
    while spine:
        e = spine.pop()
        if p < precs[e.op]:
            s = f"({s})"
        p = precs[e.op]
        s = f"{s} {e.op} {show(e.right, p + 1)}"
    return f"({s})" if p < prec else s


def print_term(t: S.Term, prec: int = 0) -> str:
    if isinstance(t, S.TConst):
        return t.text
    if isinstance(t, S.TName):
        return t.name
    if isinstance(t, S.TIndex):
        return f"{t.name}[{print_term(t.index)}]"
    if isinstance(t, S.TBin):
        return _print_chain(t, prec, S.TBin, print_term, S.TERM_PREC)
    if isinstance(t, S.TCall):
        return f"{t.name}({', '.join(print_term(a) for a in t.args)})"
    raise TypeError(f"unknown term {t!r}")


def print_pred(p: S.Pred, prec: int = 0) -> str:
    if isinstance(p, S.PRel):
        level = S.PRED_PREC[p.op]
        lp, rp = (level + 1, level) if p.op in S.RIGHT_ASSOC \
            else (level, level + 1)
        s = f"{print_pred(p.left, lp)} {p.op} {print_pred(p.right, rp)}"
        return f"({s})" if level < prec else s
    if isinstance(p, S.PNot):
        return f"!({print_pred(p.pred)})"
    if isinstance(p, S.PCmp):
        return f"{print_term(p.left)} {p.op} {print_term(p.right)}"
    if isinstance(p, S.PLet):
        if isinstance(p.value, S.PBuiltin):
            v = f"{p.value.name}({', '.join(print_term(a) for a in p.value.args)})"
        else:
            v = print_term(p.value)
        ns = ", ".join(p.names)
        if len(p.names) > 1:
            ns = f"({ns})"
        return f"\\let {ns} = {v}; {print_pred(p.body)}"
    if isinstance(p, S.PBuiltin):
        return f"{p.name}({', '.join(print_term(a) for a in p.args)})"
    raise TypeError(f"unknown predicate {p!r}")


def _print_stmt(s: S.Stmt, ind: int, out: List[str]) -> None:
    pad = "  " * ind
    if isinstance(s, S.Decl):
        if s.array_size is not None:
            line = f"{pad}{s.ctype} {s.name}[{s.array_size}]"
            if s.array_init is not None:
                line += " = {" + ", ".join(print_expr(e) for e in s.array_init) + "}"
            out.append(line + ";")
        elif s.init is not None:
            out.append(f"{pad}{s.ctype} {s.name} = {print_expr(s.init)};")
        else:
            out.append(f"{pad}{s.ctype} {s.name};")
    elif isinstance(s, S.Assign):
        out.append(f"{pad}{print_expr(s.target)} = {print_expr(s.expr)};")
    elif isinstance(s, S.If):
        out.append(f"{pad}if ({print_expr(s.cond)}) {{")
        for c in s.then.stmts:
            _print_stmt(c, ind + 1, out)
        if s.els is not None:
            out.append(f"{pad}}} else {{")
            for c in s.els.stmts:
                _print_stmt(c, ind + 1, out)
        out.append(f"{pad}}}")
    elif isinstance(s, S.While):
        out.append(f"{pad}while ({print_expr(s.cond)}) {{")
        for c in s.body.stmts:
            _print_stmt(c, ind + 1, out)
        out.append(f"{pad}}}")
    elif isinstance(s, S.DoWhile):
        out.append(f"{pad}do {{")
        for c in s.body.stmts:
            _print_stmt(c, ind + 1, out)
        out.append(f"{pad}}} while ({print_expr(s.cond)});")
    elif isinstance(s, S.Return):
        out.append(f"{pad}return{'' if s.expr is None else ' ' + print_expr(s.expr)};")
    elif isinstance(s, S.ExprStmt):
        out.append(f"{pad}{print_expr(s.expr)};")
    elif isinstance(s, S.AssertStmt):
        out.append(f"{pad}/*@ assert {print_pred(s.pred)}; */")
    elif isinstance(s, S.AssumeStmt):
        out.append(f"{pad}assume({print_expr(s.cond)});")
    elif isinstance(s, S.Block):
        out.append(f"{pad}{{")
        for c in s.stmts:
            _print_stmt(c, ind + 1, out)
        out.append(f"{pad}}}")
    elif isinstance(s, S.SectionStmt):
        save = "".join(f", {v}" for v in s.save_list)
        merge = "".join(f", {v}" for v in s.merge_list)
        out.append(f"{pad}/*@ split({s.section_id}{save}); */")
        for c in s.body:
            _print_stmt(c, ind, out)
        out.append(f"{pad}/*@ merge({s.section_id}{merge}); */")
    else:
        raise TypeError(f"unknown statement {s!r}")


def print_function(fn: S.FuncDef) -> str:
    params = ", ".join(
        f"{p.ctype} {p.name}[]" if p.is_array else f"{p.ctype} {p.name}"
        for p in fn.params)
    out = [f"{fn.ret_type} {fn.name}({params or 'void'}) {{"]
    for s in fn.body.stmts:
        _print_stmt(s, 1, out)
    out.append("}")
    return "\n".join(out)


def print_program(prog: S.Program) -> str:
    return "\n\n".join(print_function(f) for f in prog.functions.values()) + "\n"
