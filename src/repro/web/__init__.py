"""Simulated web-form layer: the "scraping" access path to the hidden database.

The paper's HDSampler talks to Google Base over HTTP: it fills in a search
form, submits it, and parses the result page.  This subpackage reproduces
that path without a network: :class:`~repro.web.server.HiddenWebSite` renders
the search form and result pages as real HTML strings, and
:class:`~repro.web.client.WebFormClient` discovers the form by parsing the
HTML, encodes queries as query strings, and parses result pages back into
tuples — implementing the same
:class:`~repro.database.interface.HiddenDatabase` contract as the direct
interface, so every sampler runs unchanged over either path.

When a real socket is wanted, :class:`~repro.web.httpd.HiddenDatabaseHTTPServer`
serves the same backend over TCP — the HTML pages plus a JSON API
(:mod:`repro.web.jsoncodec`) consumed by
:class:`repro.backends.remote.RemoteBackend`; :mod:`repro.web.compress`
defines the gzip wire-compression policy the server shares with that client.
"""

from repro.web.urlcodec import decode_query, encode_query
from repro.web.html import render_form_page, render_result_page
from repro.web.server import HiddenWebSite
from repro.web.httpd import HiddenDatabaseHTTPServer
from repro.web.form_parser import FormDescription, parse_form_page, parse_result_page
from repro.web.client import WebFormClient

__all__ = [
    "FormDescription",
    "HiddenDatabaseHTTPServer",
    "HiddenWebSite",
    "WebFormClient",
    "decode_query",
    "encode_query",
    "parse_form_page",
    "parse_result_page",
    "render_form_page",
    "render_result_page",
]
