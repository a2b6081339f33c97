"""The built-in document templates, the only definition of them.

Every template shares one window control tree (``_ribbon``) and differs in
its description and initial canvas. ``snapshot.get_template`` builds them once
per process; a test pins the initial digest of each.
"""

from __future__ import annotations

from .canvas import CanvasState, Chart, Comment, Figure, Paragraph, Run, Shape, Table
from .controls import ControlNode
from .snapshot import AppTemplate


def _ribbon(extra_disabled: bool = False) -> ControlNode:
    """The shared window control tree: a document root with ribbon tabs."""
    home = ControlNode(
        "Home",
        "TabItem",
        selected=True,
        children=(
            ControlNode("Bold", "Button"),
            ControlNode("Italic", "Button"),
            ControlNode("Text Highlight Color", "Button"),
            ControlNode("Font Color", "Button"),
            ControlNode("Font Size", "Edit"),
            ControlNode(
                "Styles",
                "ComboBox",
                children=(
                    ControlNode("Normal", "ListItem", selected=True),
                    ControlNode("Heading 1", "ListItem", selected=False),
                    ControlNode("Quote", "ListItem", selected=False),
                ),
            ),
        ),
    )
    insert = ControlNode(
        "Insert",
        "TabItem",
        selected=False,
        children=(
            ControlNode("Table", "Button"),
            ControlNode("Pictures", "Button"),
            ControlNode("Shapes", "Button"),
            ControlNode("Chart", "Button"),
        ),
    )
    design = ControlNode(
        "Design",
        "TabItem",
        selected=False,
        children=(ControlNode("Page Borders", "Button"),),
    )
    review = ControlNode(
        "Review",
        "TabItem",
        selected=False,
        children=(
            ControlNode("New Comment", "Button"),
            ControlNode("Delete Comment", "Button", enabled=not extra_disabled),
        ),
    )
    file_menu = ControlNode(
        "File",
        "MenuItem",
        children=(
            ControlNode("Save", "MenuItem"),
            ControlNode("Print", "MenuItem"),
        ),
    )
    navigation = ControlNode(
        "Navigation",
        "TreeItem",
        children=(ControlNode("Headings", "TreeItem"),),
    )
    return ControlNode(
        "Document",
        "Document",
        children=(
            file_menu,
            home,
            insert,
            design,
            review,
            navigation,
            ControlNode("Vertical Scroll Bar", "ScrollBar"),
            ControlNode("Help", "Hyperlink"),
        ),
    )


def builtin_templates() -> list[AppTemplate]:
    return [
        AppTemplate(
            template_id="plain_text",
            description="A document page with paragraphs of plain text for editing.",
            initial_canvas=CanvasState(
                blocks=(
                    Paragraph(runs=(Run(text="Test For Fun"),)),
                    Paragraph(runs=(Run(text="hello world and more words here"),)),
                )
            ),
            initial_controls=_ribbon(),
        ),
        AppTemplate(
            template_id="report_doc",
            description="A document with a long report text in several paragraphs.",
            initial_canvas=CanvasState(
                blocks=(
                    Paragraph(runs=(Run(text="Quarterly Report"),)),
                    Paragraph(runs=(Run(text="The project is on track this quarter."),)),
                    Paragraph(runs=(Run(text="Key sentence about the budget."),)),
                )
            ),
            initial_controls=_ribbon(),
        ),
        AppTemplate(
            template_id="rect_shape",
            description="A document with a rectangle shape drawing.",
            initial_canvas=CanvasState(
                blocks=(
                    Paragraph(runs=(Run(text="Shape demo text"),)),
                    Shape(shape_type="rectangle", width=200, height=100),
                )
            ),
            initial_controls=_ribbon(),
        ),
        AppTemplate(
            template_id="comments_doc",
            description="A document with comments from a reviewer.",
            initial_canvas=CanvasState(
                blocks=(
                    Paragraph(runs=(Run(text="Reviewed draft paragraph"),)),
                    Comment(author="Reviewer", text="Please check this section."),
                )
            ),
            initial_controls=_ribbon(),
        ),
        AppTemplate(
            template_id="chart_doc",
            description="A document with a sales chart.",
            initial_canvas=CanvasState(
                blocks=(
                    Paragraph(runs=(Run(text="Sales overview text"),)),
                    Chart(chart_type="bar", title="Sales by region"),
                )
            ),
            initial_controls=_ribbon(),
        ),
        AppTemplate(
            template_id="table_doc",
            description="A document with a table of quarterly data.",
            initial_canvas=CanvasState(
                blocks=(
                    Paragraph(runs=(Run(text="Quarterly data overview"),)),
                    Table(
                        rows=2,
                        cols=3,
                        cells=(("Q1", "Q2", "Q3"), ("10", "20", "30")),
                    ),
                )
            ),
            initial_controls=_ribbon(extra_disabled=True),
        ),
        AppTemplate(
            template_id="figure_doc",
            description="A document with a figure picture.",
            initial_canvas=CanvasState(
                blocks=(
                    Paragraph(runs=(Run(text="Figure caption text"),)),
                    Figure(name="diagram.png", caption="System diagram"),
                )
            ),
            initial_controls=_ribbon(),
        ),
    ]
